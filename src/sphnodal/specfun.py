"""Normalized ultraspherical polynomials and their companions.

Everything on the m-sphere reduces to the family Q_n(t), the Gegenbauer
polynomial with parameter (m-2)/2 rescaled so that Q_n(1) = 1.  This module
evaluates Q_n and its first two derivatives, Bessel J functions of the
orders that show up in the uniform (Hilb-type) approximation of Q_n, and
the weighted moment integrals of Q_n and its derivatives against the
pushforward measure

    dmu(t) = (2 pi^{m/2} / Gamma(m/2)) (1 - t^2)^{(m-2)/2} dt

on [-1, 1], whose total mass equals the volume of the m-sphere.

All Gamma/factorial arithmetic goes through ``math.lgamma`` so that degree
sweeps up to n ~ 160 (and far beyond) never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SphereModel",
    "gegenbauer_q",
    "gegenbauer_eval_arrays",
    "bessel_j",
    "c_tilde",
    "hilb_approx",
    "moment_integral",
    "second_moment_closed_form",
    "find_c0",
    "epsilon_rate",
    "mu_weight_constant",
    "HILB_ENVELOPE_CONST",
]

# Envelope constant for the Hilb approximation error bound, fitted once at
# (m=2, n=50) and frozen.  The split between the two error regimes sits at
# theta = HILB_SPLIT_COEFF / n.
HILB_ENVELOPE_CONST = 10.0
HILB_SPLIT_COEFF = 1.0

MOMENT_KINDS = ("Q2", "Q4", "DQ2", "DQ4_weighted", "D2Q2_weighted")


@dataclass(frozen=True)
class SphereModel:
    """Degree-n eigenspace on the m-sphere.

    Carries the eigenvalue E = n(n+m-1) and the eigenspace dimension N,
    both computed in exact integer arithmetic, plus alpha = (m-2)/2.
    """

    m: int
    n: int
    E: int
    N: int
    alpha: float

    def __init__(self, m: int, n: int):
        if m < 2:
            raise ValueError(f"sphere dimension must be >= 2, got m={m}")
        if n < 0:
            raise ValueError(f"degree must be >= 0, got n={n}")
        num = (2 * n + m - 1) * math.comb(n + m - 1, m - 1)
        den = n + m - 1
        if num % den != 0:
            raise AssertionError("eigenspace dimension is not integral")
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "E", n * (n + m - 1))
        object.__setattr__(self, "N", num // den)
        object.__setattr__(self, "alpha", (m - 2) / 2.0)


def _check_t(t):
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0):
        raise ValueError("argument of Q_n must lie in [-1, 1]")
    return t


def _q_pair(model: SphereModel, t: np.ndarray):
    """Q_n(t) and Q_{n-1}(t) by the ratio-normalized three-term recurrence.

    Dividing the Gegenbauer recurrence by the value at 1 gives

        Q_k = ((2k+m-3) t Q_{k-1} - (k-1) Q_{k-2}) / (k+m-2),

    which keeps every iterate in [-1, 1] (no overflow at any degree) and
    makes Q_k(1) = 1 hold identically: at t = 1 the coefficients sum to
    (k+m-2)/(k+m-2).
    """
    m, n = model.m, model.n
    if n == 0:
        return np.ones_like(t), np.zeros_like(t)
    q_prev = np.ones_like(t)   # Q_0
    q = np.array(t, copy=True)  # Q_1
    for k in range(2, n + 1):
        q, q_prev = ((2 * k + m - 3) * t * q - (k - 1) * q_prev) / (k + m - 2), q
    return q, q_prev


def gegenbauer_q(model: SphereModel, t):
    """Normalized ultraspherical polynomial Q_n(t), vectorized in t."""
    t = _check_t(t)
    q, _ = _q_pair(model, t)
    if q.ndim == 0:
        return float(q)
    return q


def gegenbauer_eval_arrays(model: SphereModel, t):
    """(Q_n, Q_n', Q_n'') on an array of points.

    The derivative uses the mixed-degree relation
    (1-t^2) Q_n' = n (Q_{n-1} - t Q_n); the second derivative solves the
    defining ODE (1-t^2) v'' - m t v' + E v = 0 for v''.  At t = +-1 both
    relations degenerate and the ODE limits take over:

        Q_n'(+-1)  = (+-1)^{n+1} ... specifically  E/m at 1, (-1)^{n+1} E/m at -1,
        Q_n''(+-1) = (+-1)^n (E - m) E / (m (m + 2)).
    """
    t = _check_t(t)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    m, n, E = model.m, model.n, model.E
    q, q_prev = _q_pair(model, t)

    if n == 0:
        z = np.zeros_like(t)
        out = (q, z, z)
        return tuple(float(a[0]) for a in out) if scalar else out

    one_minus_t2 = 1.0 - t * t
    dq = np.empty_like(t)
    d2q = np.empty_like(t)
    interior = one_minus_t2 > 1e-13
    if np.any(interior):
        ti = t[interior]
        w = one_minus_t2[interior]
        qn = q[interior]
        d = n * (q_prev[interior] - ti * qn) / w
        dq[interior] = d
        d2q[interior] = (m * ti * d - E * qn) / w
    edge = ~interior
    if np.any(edge):
        neg = t[edge] < 0
        # parity Q(-t) = (-1)^n Q(t) transfers the t=1 ODE limits to t=-1
        dq[edge] = np.where(neg, (-1.0) ** (n + 1), 1.0) * (E / m)
        d2q[edge] = np.where(neg, (-1.0) ** n, 1.0) * (E - m) * E / (m * (m + 2))
    if scalar:
        return float(q[0]), float(dq[0]), float(d2q[0])
    return q, dq, d2q


# ---------------------------------------------------------------------------
# Bessel J of integer and half-integer order
# ---------------------------------------------------------------------------

def _bessel_series(nu: float, x: float, terms: int = 60) -> float:
    # ascending series sum_k (-1)^k (x/2)^{2k+nu} / (k! Gamma(nu+k+1)),
    # adequate up to x ~ 12 before alternation starts to eat digits
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    lx = math.log(x / 2.0)
    total = 0.0
    for k in range(terms):
        term = math.exp((2 * k + nu) * lx - math.lgamma(k + 1) - math.lgamma(nu + k + 1))
        total += -term if k % 2 else term
        if term < 1e-18 * max(1.0, abs(total)):
            break
    return total


def _bessel_asymptotic(nu: float, x: float) -> float:
    # Hankel's large-argument expansion sqrt(2/(pi x)) (P cos chi - Q sin chi)
    mu = 4.0 * nu * nu
    p = 1.0
    q = (mu - 1.0) / (8.0 * x)
    num = 1.0
    for k in range(1, 10):
        num *= (mu - (4 * k - 3) ** 2) * (mu - (4 * k - 1) ** 2)
        term_p = ((-1) ** k) * num / (math.factorial(2 * k) * (8.0 * x) ** (2 * k))
        p += term_p
        num_q = num * (mu - (4 * k + 1) ** 2)
        term_q = ((-1) ** k) * num_q / (math.factorial(2 * k + 1) * (8.0 * x) ** (2 * k + 1))
        q += term_q
        if max(abs(term_p), abs(term_q)) < 1e-17:
            break
    chi = x - (0.5 * nu + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - q * math.sin(chi))


def _spherical_jl(ell: int, x: float) -> float:
    # j_l with a series fallback where the closed forms cancel
    if x < 0.05 * (ell + 1) + 0.5:
        # x^l sum_k (-x^2/2)^k / (k! (2l+2k+1)!!)
        total = 0.0
        term = 1.0
        dfac = 1.0
        for i in range(1, 2 * ell + 2, 2):
            dfac *= i
        term = x**ell / dfac
        total = term
        for k in range(1, 40):
            term *= -(x * x / 2.0) / (k * (2 * ell + 2 * k + 1))
            total += term
            if abs(term) < 1e-18 * max(1e-300, abs(total)):
                break
        return total
    j0 = math.sin(x) / x
    if ell == 0:
        return j0
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    if ell == 1:
        return j1
    jm, j = j0, j1
    for k in range(1, ell):
        jm, j = j, (2 * k + 1) / x * j - jm
    return j


def bessel_j(alpha: float, x: float) -> float:
    """Bessel J_alpha(x) for integer or half-integer alpha >= 0, x >= 0."""
    two_alpha = 2.0 * alpha
    if alpha < 0 or abs(two_alpha - round(two_alpha)) > 1e-12:
        raise ValueError(f"order must be a nonnegative integer or half-integer, got {alpha}")
    if x < 0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 1.0 if alpha == 0.0 else 0.0
    if round(two_alpha) % 2 == 1:
        ell = int(round(alpha - 0.5))
        return math.sqrt(2.0 * x / math.pi) * _spherical_jl(ell, x)
    nu = int(round(alpha))
    if x <= 12.0:
        return _bessel_series(float(nu), x)
    if nu <= 1:
        return _bessel_asymptotic(float(nu), x)
    # upward recurrence, stable here since x > 12 >= nu for every order we use
    if nu > x:
        raise ValueError(f"order {nu} too large for argument {x}")
    jm = _bessel_asymptotic(0.0, x)
    j = _bessel_asymptotic(1.0, x)
    for k in range(1, nu):
        jm, j = j, 2.0 * k / x * j - jm
    return j


def c_tilde(m: int) -> float:
    """Inverse of lim_{x->0} J_alpha(x)/x^alpha with alpha = (m-2)/2.

    Equals 2^alpha Gamma(alpha+1); this is the constant matching the
    Bessel main term to the normalization Q_n(1) = 1.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    alpha = (m - 2) / 2.0
    return math.exp(alpha * math.log(2.0) + math.lgamma(alpha + 1.0))


def hilb_approx(model: SphereModel, theta: float):
    """Uniform Bessel-type main term for Q_n(cos theta) on (0, pi/2].

    Returns (approx, error_envelope).  After normalization the main term
    collapses to

        C~ * sqrt(theta/sin theta) * J_alpha(Nh theta) / (Nh sin theta)^alpha

    with Nh = n + (m-1)/2.  The envelope is the two-regime error shape
    (theta^{1/2} n^{-3/2} away from the pole, theta^{alpha+2} n^alpha
    inside theta < 1/n) scaled by the frozen module constant.
    """
    if not (0.0 < theta <= math.pi / 2.0):
        raise ValueError(f"theta must lie in (0, pi/2], got {theta}")
    m, n = model.m, model.n
    alpha = model.alpha
    nh = n + (m - 1) / 2.0
    s = math.sin(theta)
    approx = (
        c_tilde(m)
        * math.sqrt(theta / s)
        * bessel_j(alpha, nh * theta)
        / (nh * s) ** alpha
    )
    if theta > HILB_SPLIT_COEFF / n:
        envelope = HILB_ENVELOPE_CONST * math.sqrt(theta) * n ** (-1.5)
    else:
        envelope = HILB_ENVELOPE_CONST * theta ** (alpha + 2.0) * n**alpha
    return approx, envelope


# ---------------------------------------------------------------------------
# Moment integrals against dmu
# ---------------------------------------------------------------------------

def mu_weight_constant(m: int) -> float:
    """Prefactor 2 pi^{m/2} / Gamma(m/2) of the measure dmu."""
    return math.exp(math.log(2.0) + (m / 2.0) * math.log(math.pi) - math.lgamma(m / 2.0))


def _panel_nodes(a: float, b: float, panels: int, order: int = 8):
    x, w = np.polynomial.legendre.leggauss(order)
    width = (b - a) / panels
    left = a + width * np.arange(panels)
    nodes = (left[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * width * w, panels)
    return nodes, weights


def _integrate_theta(f, a: float, b: float, panels: int, rtol: float = 1e-10,
                     max_doublings: int = 8):
    """Composite 8-node Gauss-Legendre with panel doubling to tolerance.

    ``f`` maps an array of theta values to integrand values (the measure
    weight included by the caller).  Raises RuntimeError if ``max_doublings``
    doublings do not bring two successive values within ``rtol``.
    """
    return _integrate_theta_many(lambda nodes, active: lambda k: f(nodes), 1, a, b, panels,
                                 rtol, max_doublings)[0]


def _integrate_theta_many(integrands, count: int, a: float, b: float, panels: int,
                          rtol: float = 1e-10, max_doublings: int = 8) -> list[float]:
    """``_integrate_theta`` for ``count`` integrands on shared panel levels.

    ``integrands(nodes, active)`` prepares one panel level for the
    integrands whose indices are in ``active`` and returns a function that
    gives integrand k on ``nodes``; each is reduced to its weighted sum
    before the next is formed, so one integrand array is alive at a time.
    Each integrand converges on its own: once two successive levels agree
    within ``rtol`` it keeps the finer value and leaves ``active``, so every
    value is the one a single-integrand run would return.
    """
    values: dict[int, float] = {}
    active = tuple(range(count))
    for level in range(max_doublings + 1):
        nodes, weights = _panel_nodes(a, b, panels)
        integrand = integrands(nodes, active)
        sums = {k: float(np.dot(weights, integrand(k))) for k in active}
        del integrand  # frees this level's arrays before the next level builds its own
        changes = {k: abs(sums[k] - values[k]) for k in active} if level else {}
        values.update(sums)
        # "not <=" keeps a NaN change unconverged
        active = tuple(k for k in active
                       if not level or not changes[k] <= rtol * max(1.0, abs(sums[k])))
        if not active:
            return [values[k] for k in range(count)]
        if level < max_doublings:
            panels *= 2
    change = max(changes[k] for k in active)
    raise RuntimeError(f"quadrature on [{a:g}, {b:g}] did not converge with {panels} panels: "
                       f"last change {change:.3g}, rtol {rtol:g}")


_DERIVATIVE_KINDS = ("DQ2", "DQ4_weighted", "D2Q2_weighted")


def moment_integral(model: SphereModel, kind: str | tuple[str, ...]):
    """Integral of a Q_n-derived quantity against dmu over [-1, 1].

    kind selects the integrand: Q2 -> Q^2, Q4 -> Q^4, DQ2 -> (Q')^2,
    DQ4_weighted -> (Q')^4 (1-t^2)^2, D2Q2_weighted -> (Q'')^2 (1-t^2)^2.
    Evaluated in the theta = arccos t parameterization with panels no wider
    than pi/(8n), so oscillations of Q_n are resolved by >= 16 nodes each.
    A tuple of kinds gives a tuple of integrals, in order, from one Q_n
    recurrence per panel level; each equals its single-kind value exactly.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    for k in kinds:
        if k not in MOMENT_KINDS:
            raise ValueError(f"unknown moment kind {k!r}")
    m, n = model.m, model.n
    wm = mu_weight_constant(m)

    def integrands(thetas: np.ndarray, active: tuple[int, ...]):
        t = np.cos(thetas)
        sm = np.sin(thetas) ** (m - 1)
        if any(kinds[k] in _DERIVATIVE_KINDS for k in active):
            q, dq, d2q = gegenbauer_eval_arrays(model, t)
        else:
            q = gegenbauer_q(model, t)

        def integrand(k: int) -> np.ndarray:
            if kinds[k] == "Q2":
                g = q**2
            elif kinds[k] == "Q4":
                g = q**4
            elif kinds[k] == "DQ2":
                g = dq**2
            elif kinds[k] == "DQ4_weighted":
                g = dq**4 * (1.0 - t * t) ** 2
            else:
                g = d2q**2 * (1.0 - t * t) ** 2
            return wm * g * sm

        return integrand

    panels = max(8, 8 * n)
    values = _integrate_theta_many(integrands, len(kinds), 0.0, math.pi, panels)
    return values[0] if isinstance(kind, str) else tuple(values)


def second_moment_closed_form(model: SphereModel) -> float:
    """Exact value of the second moment of Q_n against dmu.

    2^m pi^{m/2} Gamma(m/2) / (2n+m-1) * n! / (n+m-2)!, assembled in log
    space so the factorial ratio stays exact to rounding for any degree.
    """
    m, n = model.m, model.n
    log_val = (
        m * math.log(2.0)
        + (m / 2.0) * math.log(math.pi)
        + math.lgamma(m / 2.0)
        - math.log(2 * n + m - 1)
        + math.lgamma(n + 1)
        - math.lgamma(n + m - 1)
    )
    return math.exp(log_val)


def find_c0(model: SphereModel, eps0: float) -> float:
    """Smallest c (1% geometric grid) with sup |Q_n| <= eps0 on the clipped
    interval [-1 + c/n^2, 1 - c/n^2].

    The sup is scanned on a theta grid of spacing pi/(64 n); by parity only
    half the interval needs checking.  Raises if even the full clip c = n^2
    (empty interval) cannot push the sup below eps0.
    """
    if not (0.0 < eps0 < 1.0):
        raise ValueError("eps0 must lie in (0, 1)")
    n = model.n
    if n < 2:
        raise ValueError("degree must be >= 2")
    step = math.pi / (64 * n)
    thetas = np.arange(step, math.pi / 2 + step, step)
    qs = np.abs(gegenbauer_q(model, np.cos(thetas)))
    # suffix maximum toward the equator: sup of |Q| over [theta_i, pi - theta_i]
    suffix = np.maximum.accumulate(qs[::-1])[::-1]
    idx = np.nonzero(suffix <= eps0)[0]
    if idx.size == 0:
        raise ValueError(f"no clipping achieves sup |Q| <= {eps0} at this degree")
    theta_star = thetas[idx[0]]
    c_star = (1.0 - math.cos(theta_star)) * n * n
    # round up onto the 1% geometric grid anchored at 1e-6
    base = 1e-6
    if c_star <= base:
        return base
    k = math.ceil(math.log(c_star / base) / math.log(1.01))
    return base * 1.01**k


def epsilon_rate(m: int, n: int) -> float:
    """Error rate of the nonsingular-interval expansion: log(n)/n^2 for
    m = 2 and n^{-m} otherwise."""
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    if m == 2:
        return math.log(n) / (n * n)
    return float(n) ** (-m)
