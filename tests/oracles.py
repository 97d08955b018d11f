"""Straight-line reference formulas for every observable.

Written separately from the library, using only the math module, so that
value comparisons in the tests check two independent transcriptions of
the same closed forms rather than one code path against itself.
"""
import math


def ck(kap, x):
    if kap > 0.0:
        return math.cos(math.sqrt(kap) * x)
    if kap < 0.0:
        return math.cosh(math.sqrt(-kap) * x)
    return 1.0


def sk(kap, x):
    if kap > 0.0:
        return math.sin(math.sqrt(kap) * x) / math.sqrt(kap)
    if kap < 0.0:
        return math.sinh(math.sqrt(-kap) * x) / math.sqrt(-kap)
    return x


def tk(kap, x):
    return sk(kap, x) / ck(kap, x)


# State layout everywhere: s = (r, theta, phi, p_r, p_theta, p_phi).

def p1(kap, s):
    r, th, ph, pr, pth, pph = s
    ct = ck(kap, r) / sk(kap, r)
    return (math.sin(th) * math.cos(ph) * pr
            + ct * (math.cos(th) * math.cos(ph) * pth
                    - (math.sin(ph) / math.sin(th)) * pph))


def p2(kap, s):
    r, th, ph, pr, pth, pph = s
    ct = ck(kap, r) / sk(kap, r)
    return (math.sin(th) * math.sin(ph) * pr
            + ct * (math.cos(th) * math.sin(ph) * pth
                    + (math.cos(ph) / math.sin(th)) * pph))


def p3(kap, s):
    r, th, ph, pr, pth, pph = s
    ct = ck(kap, r) / sk(kap, r)
    return math.cos(th) * pr - ct * math.sin(th) * pth


def noether(i, kap, s):
    return (p1, p2, p3)[i - 1](kap, s)


def j1(s):
    r, th, ph, pr, pth, pph = s
    return -(math.sin(ph) * pth + (math.cos(th) / math.sin(th)) * math.cos(ph) * pph)


def j2(s):
    r, th, ph, pr, pth, pph = s
    return math.cos(ph) * pth - (math.cos(th) / math.sin(th)) * math.sin(ph) * pph


def j3(s):
    return s[5]


def angular(i, s):
    return (j1, j2, j3)[i - 1](s)


def jsq(s):
    return j1(s) ** 2 + j2(s) ** 2 + j3(s) ** 2


def dircos(axis, s):
    th, ph = s[1], s[2]
    return (math.sin(th) * math.cos(ph),
            math.sin(th) * math.sin(ph),
            math.cos(th))[axis - 1]


def coord(axis, kap, s):
    return sk(kap, s[0]) * dircos(axis, s)


def kinetic(kap, s):
    r, th, ph, pr, pth, pph = s
    return 0.5 * (pr ** 2 + (pth ** 2 + pph ** 2 / math.sin(th) ** 2) / sk(kap, r) ** 2)


# Free motion in the Lagrangian picture, on velocity states
# v = (r, theta, phi, v_r, v_theta, v_phi).

def metric(kap, r, th):
    """Diagonal metric (g_rr, g_thth, g_phph) of dr^2 + sin_k(r)^2 dOmega^2."""
    s2 = sk(kap, r) ** 2
    return 1.0, s2, s2 * math.sin(th) ** 2


def kinetic_velocity(kap, v):
    g = metric(kap, v[0], v[1])
    return 0.5 * (g[0] * v[3] ** 2 + g[1] * v[4] ** 2 + g[2] * v[5] ** 2)


def legendre(kap, v):
    """Velocity state to phase state: p = g v."""
    g = metric(kap, v[0], v[1])
    return (v[0], v[1], v[2], g[0] * v[3], g[1] * v[4], g[2] * v[5])


def legendre_inv(kap, s):
    """Phase state to velocity state: v = g^-1 p."""
    g = metric(kap, s[0], s[1])
    return (s[0], s[1], s[2], s[3] / g[0], s[4] / g[1], s[5] / g[2])


def geodesic_rhs(kap, v):
    """Geodesic equations x'' = -Gamma(x', x') of the metric, first order."""
    r, th, ph, vr, vth, vph = v
    s, c = sk(kap, r), ck(kap, r)
    sth, cth = math.sin(th), math.cos(th)
    return (vr, vth, vph,
            s * c * (vth ** 2 + sth ** 2 * vph ** 2),
            -2.0 * (c / s) * vr * vth + sth * cth * vph ** 2,
            -2.0 * ((c / s) * vr + (cth / sth) * vth) * vph)


def _frame(th, ph):
    """Unit vectors n, e_theta and e_phi of the angles (theta, phi)."""
    sth, cth, sph, cph = math.sin(th), math.cos(th), math.sin(ph), math.cos(ph)
    return (sth * cph, sth * sph, cth), (cth * cph, cth * sph, -sth), (-sph, cph, 0.0)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def geodesic_exact(kap, s, t):
    """The phase state reached from s after time t of free motion.

    In ambient coordinates X = (C_k(r), S_k(r) n), with n the unit vector
    of (theta, phi), a geodesic of speed v = sqrt(2 T) is
    X(t) = C_k(v t) X(0) + S_k(v t) X'(0) / v, a great circle for kappa > 0,
    a hyperbola for kappa < 0 and a straight line for kappa = 0.  Since
    C_k(v t) = C_{k v^2}(t) and S_k(v t) / v = S_{k v^2}(t), one formula
    serves every kappa, v = 0 included.  The velocity is
    X' = (-kappa S_k r', C_k r' n + S_k n'), with
    S_k n' = (p_theta / S_k) e_theta + (p_phi / (S_k sin theta)) e_phi;
    back in polar form r' = C_k (n . X'_s) - S_k X'_0,
    p_theta = S_k^2 theta' = S_k (e_theta . X'_s) and
    p_phi = S_k^2 sin^2(theta) phi' = S_k sin(theta) (e_phi . X'_s).
    """
    r, th, ph, pr, pth, pph = s
    kv = 2.0 * kinetic(kap, s) * kap
    c, sn = ck(kap, r), sk(kap, r)
    n, e_th, e_ph = _frame(th, ph)
    a, b = pth / sn, pph / (sn * math.sin(th))
    x = [c] + [sn * n[i] for i in range(3)]
    xd = [-kap * sn * pr] + [c * pr * n[i] + a * e_th[i] + b * e_ph[i] for i in range(3)]
    cv, sv = ck(kv, t), sk(kv, t)
    xt = [cv * x[i] + sv * xd[i] for i in range(4)]
    xdt = [-kv * sv * x[i] + cv * xd[i] for i in range(4)]
    rho = math.sqrt(_dot(xt[1:], xt[1:]))
    if kap > 0.0:
        r1 = math.atan2(math.sqrt(kap) * rho, xt[0]) / math.sqrt(kap)
    elif kap < 0.0:
        r1 = math.asinh(math.sqrt(-kap) * rho) / math.sqrt(-kap)
    else:
        r1 = rho
    th1, ph1 = math.acos(xt[3] / rho), math.atan2(xt[2], xt[1])
    n1, e_th1, e_ph1 = _frame(th1, ph1)
    c1, sn1 = ck(kap, r1), sk(kap, r1)
    return (r1, th1, ph1,
            c1 * _dot(n1, xdt[1:]) - sn1 * xdt[0],
            sn1 * _dot(e_th1, xdt[1:]),
            sn1 * math.sin(th1) * _dot(e_ph1, xdt[1:]))


def state_gap(a, b):
    """Largest difference of two phase states, phi compared mod 2 pi."""
    d = [abs(x - y) for x, y in zip(a, b)]
    d[2] = abs(math.remainder(a[2] - b[2], 2.0 * math.pi))
    return max(d)


# Potentials.

def v_oscillator(kap, alpha, s):
    return 0.5 * alpha ** 2 * tk(kap, s[0]) ** 2


def v_kepler(kap, k, s):
    return k * ck(kap, s[0]) / sk(kap, s[0])


def v_couplings(kap, ks, s):
    out = 0.0
    for axis, ki in enumerate(ks, start=1):
        if ki != 0.0:
            out += ki / coord(axis, kap, s) ** 2
    return out


def h_free(kap, s):
    return kinetic(kap, s)


def h_oscillator(kap, alpha, s):
    return kinetic(kap, s) + v_oscillator(kap, alpha, s)


def h_sw(kap, alpha, ks, s):
    return h_oscillator(kap, alpha, s) + v_couplings(kap, ks, s)


def h_kepler(kap, k, s):
    return kinetic(kap, s) + v_kepler(kap, k, s)


def h_kepler123(kap, k, ks, s):
    return h_kepler(kap, k, s) + v_couplings(kap, ks, s)


# Isotropic oscillator family.

def osc_k(i, j, kap, alpha, s):
    pi = noether(i, kap, s)
    pj = noether(j, kap, s)
    t2 = tk(kap, s[0]) ** 2
    return pi * pj + alpha ** 2 * t2 * dircos(i, s) * dircos(j, s)


def osc_w(i, kap, alpha, s):
    j, l = {1: (2, 3), 2: (3, 1), 3: (1, 2)}[i]
    return (osc_k(j, j, kap, alpha, s) + osc_k(l, l, kap, alpha, s)
            + kap * (angular(j, s) ** 2 + angular(l, s) ** 2))


def osc_m(j, kap, alpha, s):
    return complex(noether(j, kap, s), alpha * tk(kap, s[0]) * dircos(j, s))


# Smorodinsky-Winternitz style couplings.

def sw_k(i, kap, alpha, ks, s):
    base = osc_k(i, i, kap, alpha, s)
    ki = ks[i - 1]
    return base + 2.0 * ki / (tk(kap, s[0]) * dircos(i, s)) ** 2


def sw_kj(i, kap, ks, s):
    k1, k2, k3 = ks
    x, y, z = coord(1, kap, s), coord(2, kap, s), coord(3, kap, s)
    j = angular(i, s)
    if i == 1:
        return j * j + 2.0 * (k2 * z * z / (y * y) + k3 * y * y / (z * z))
    if i == 2:
        return j * j + 2.0 * (k1 * z * z / (x * x) + k3 * x * x / (z * z))
    return j * j + 2.0 * (k1 * y * y / (x * x) + k2 * x * x / (y * y))


def sw_w(i, kap, alpha, ks, s):
    j, l = {1: (2, 3), 2: (3, 1), 3: (1, 2)}[i]
    return (sw_k(j, kap, alpha, ks, s) + sw_k(l, kap, alpha, ks, s)
            + kap * (sw_kj(j, kap, ks, s) + sw_kj(l, kap, ks, s)))


# 1:1:2 anisotropic oscillator.

def osc112_az(kap, s):
    u = tk(kap, s[0]) * math.cos(s[1])
    return u / (1.0 - kap * u * u)


def osc112_v(kap, alpha, k1, k2, s):
    x, y = coord(1, kap, s), coord(2, kap, s)
    w = x * x + y * y
    main = 0.5 * alpha ** 2 * (w + 4.0 * osc112_az(kap, s) ** 2) / (1.0 - kap * w)
    return main + k1 / (x * x) + k2 / (y * y)


def osc112_h(kap, alpha, k1, k2, s):
    return kinetic(kap, s) + osc112_v(kap, alpha, k1, k2, s)


def osc112_k3(kap, alpha, s):
    return p3(kap, s) ** 2 + 4.0 * alpha ** 2 * osc112_az(kap, s) ** 2


def osc112_kj3(kap, k1, k2, s):
    x, y = coord(1, kap, s), coord(2, kap, s)
    return j3(s) ** 2 + 2.0 * k2 * (x / y) ** 2 + 2.0 * k1 * (y / x) ** 2


def osc112_k12(kap, alpha, k1, k2, s):
    x, y = coord(1, kap, s), coord(2, kap, s)
    a = osc112_az(kap, s)
    w = x * x + y * y
    t = w / (1.0 - kap * w)
    return (p1(kap, s) ** 2 + kap * j1(s) ** 2
            + p2(kap, s) ** 2 + kap * j2(s) ** 2
            + alpha ** 2 * (1.0 + 4.0 * kap * a * a) * t
            + 2.0 * k2 * (1.0 - kap * x * x) / (y * y)
            + 2.0 * k1 * (1.0 - kap * y * y) / (x * x))


def osc112_krl1(kap, alpha, k1, s):
    x, z = coord(1, kap, s), coord(3, kap, s)
    th, ph = s[1], s[2]
    val = (-p1(kap, s) * j2(s)
           + alpha ** 2 * (math.tan(th) * math.cos(ph) / ck(kap, s[0]))
           * osc112_az(kap, s) ** 2 * x)
    if k1 != 0.0:
        val -= 2.0 * k1 * ck(kap, s[0]) * z / (x * x)
    return val


def osc112_krl2(kap, alpha, k2, s):
    y, z = coord(2, kap, s), coord(3, kap, s)
    th, ph = s[1], s[2]
    val = (p2(kap, s) * j1(s)
           + alpha ** 2 * (math.tan(th) * math.sin(ph) / ck(kap, s[0]))
           * osc112_az(kap, s) ** 2 * y)
    if k2 != 0.0:
        val -= 2.0 * k2 * ck(kap, s[0]) * z / (y * y)
    return val


# Kepler family.

def kepler_rl(i, kap, k, s):
    j, l = {1: (2, 3), 2: (3, 1), 3: (1, 2)}[i]
    return (noether(j, kap, s) * angular(l, s)
            - noether(l, kap, s) * angular(j, s)
            + k * dircos(i, s))


def k123_r(i, kap, k, ks, s):
    u = v_couplings(kap, ks, s)
    return (kepler_rl(i, kap, k, s)
            + 2.0 * ck(kap, s[0]) * sk(kap, s[0]) * dircos(i, s) * u)


def k123_s(i, kap, s):
    return s[3] * sk(kap, s[0]) / coord(i, kap, s)


def k123_kr(i, kap, k, ks, s):
    ki = ks[i - 1]
    return k123_r(i, kap, k, ks, s) ** 2 + 2.0 * ki * k123_s(i, kap, s) ** 2


def k123_n(i, kap, k, ks, s):
    ki = ks[i - 1]
    return complex(k123_r(i, kap, k, ks, s),
                   math.sqrt(2.0 * ki) * k123_s(i, kap, s))


# Radial quadrature of a bound orbit of a central potential.

def radial_period(system, kap, coupling, s, nodes=400):
    """(T_r, dphi): the radial period of a bound orbit and the angle it
    sweeps in its plane meanwhile, for system "free", "oscillator" (coupling
    alpha) or "kepler" (coupling k).

    With L^2 = |J|^2 and gap(r) = 2 (E - V(r)) - L^2 / sin_k(r)^2, the
    turning points r1 < r2 are the zeros of gap around r, found by a scan
    outward in small steps and then bisection.  T_r = 2 int dr / sqrt(gap)
    and dphi = 2 int L / sin_k(r)^2 dr / sqrt(gap) over [r1, r2].  Under
    r = m - h cos(psi) both integrands are smooth periodic functions of
    psi, so the midpoint rule in psi converges geometrically.
    """
    v = {
        "free": lambda r: 0.0,
        "oscillator": lambda r: 0.5 * coupling ** 2 * tk(kap, r) ** 2,
        "kepler": lambda r: coupling * ck(kap, r) / sk(kap, r),
    }[system]
    lsq = jsq(s)
    energy = kinetic(kap, s) + v(s[0])
    r_end = math.pi / math.sqrt(kap) if kap > 0.0 else 50.0

    def gap(r):
        return 2.0 * (energy - v(r)) - lsq / sk(kap, r) ** 2

    def turning(step):
        a = s[0]
        while gap(a + step) > 0.0:
            a += step
            if not 0.0 < a + step < r_end:
                raise ValueError("the orbit is not bound")
        b = a + step
        for _ in range(200):
            mid = 0.5 * (a + b)
            if gap(mid) > 0.0:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    r1, r2 = turning(-1e-3), turning(1e-3)
    m, h = 0.5 * (r1 + r2), 0.5 * (r2 - r1)
    t_r = dphi = 0.0
    for i in range(nodes):
        psi = math.pi * (i + 0.5) / nodes
        r = m - h * math.cos(psi)
        w = h * math.sin(psi) / math.sqrt(gap(r))
        t_r += w
        dphi += w * math.sqrt(lsq) / sk(kap, r) ** 2
    return 2.0 * math.pi / nodes * t_r, 2.0 * math.pi / nodes * dphi
