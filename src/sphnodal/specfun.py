"""Normalized ultraspherical polynomials and their companions.

Everything on the m-sphere reduces to the family Q_n(t), the Gegenbauer
polynomial with parameter (m-2)/2 rescaled so that Q_n(1) = 1.  This module
evaluates Q_n and its first two derivatives, the clip of the nonsingular
interval, and the weighted moment integrals of Q_n and its derivatives
against the pushforward measure

    dmu(t) = |S^{m-1}| (1 - t^2)^{(m-2)/2} dt,  |S^{m-1}| = 2 pi^{m/2} / Gamma(m/2),

on [-1, 1], whose total mass equals the volume of the m-sphere.

All Gamma/factorial arithmetic goes through ``math.lgamma`` so that degree
sweeps up to n ~ 160 (and far beyond) never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import sphere_volume

__all__ = [
    "SphereModel",
    "gegenbauer_q",
    "gegenbauer_eval_arrays",
    "moment_integral",
    "second_moment_closed_form",
    "find_c0",
]

# moment kind -> its integrand in Q_n, Q_n', Q_n'' and t
_MOMENT_INTEGRANDS = {
    "Q2": lambda q, dq, d2q, t: q**2,
    "Q4": lambda q, dq, d2q, t: q**4,
    "DQ2": lambda q, dq, d2q, t: dq**2,
    "DQ4_weighted": lambda q, dq, d2q, t: dq**4 * (1.0 - t * t) ** 2,
    "D2Q2_weighted": lambda q, dq, d2q, t: d2q**2 * (1.0 - t * t) ** 2,
}
MOMENT_KINDS = tuple(_MOMENT_INTEGRANDS)

# Starting panels of the theta quadrature per unit of degree: a panel no
# wider than pi/(8n) puts 16 Gauss nodes on each oscillation of Q_n.
PANELS_PER_DEGREE = 8


@dataclass(frozen=True)
class SphereModel:
    """Degree-n eigenspace on the m-sphere.

    Carries the eigenvalue E = n(n+m-1) and the eigenspace dimension N,
    both computed in exact integer arithmetic.
    """

    m: int
    n: int
    E: int
    N: int

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
    (k+m-2)/(k+m-2).  Each step overwrites Q_{k-2} with Q_k in the same
    operation order as that formula, so no step allocates and the values
    are those of the allocating form bit for bit.
    """
    m, n = model.m, model.n
    if n == 0:
        return np.ones_like(t), np.zeros_like(t)
    q_prev = np.ones_like(t)   # Q_0
    q = np.array(t, copy=True)  # Q_1
    tmp = np.empty_like(q)
    for k in range(2, n + 1):
        np.multiply(2 * k + m - 3, t, out=tmp)
        tmp *= q
        q_prev *= k - 1
        np.subtract(tmp, q_prev, out=q_prev)
        q_prev /= k + m - 2
        q, q_prev = q_prev, q
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

        Q_n'(1)  = E/m,                      Q_n'(-1)  = (-1)^{n+1} E/m,
        Q_n''(1) = (E - m) E / (m (m + 2)),  Q_n''(-1) = (-1)^n (E - m) E / (m (m + 2)).
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
# Moment integrals against dmu
# ---------------------------------------------------------------------------

# panel doublings before the theta quadrature gives up
_DOUBLINGS = 8


def _panel_nodes(a: float, b: float, panels: int):
    """Nodes and weights of the composite 8-node Gauss-Legendre rule."""
    # the rule is built here, not at import, so that commands without a
    # theta quadrature never load numpy.polynomial
    x, w = np.polynomial.legendre.leggauss(8)
    width = (b - a) / panels
    left = a + width * np.arange(panels)
    nodes = (left[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * width * w, panels)
    return nodes, weights


def _integrate_theta(f, a: float, b: float, panels: int, rtol: float = 1e-10):
    """Composite 8-node Gauss-Legendre with panel doubling to tolerance.

    ``f`` maps an array of theta values to integrand values (the measure
    weight included by the caller), or to a stack with one row per
    integrand; the result is a float or an array with one value per row.
    Each row converges on its own: once two successive levels agree within
    ``rtol`` it keeps the finer value, the one a one-row call returns.
    Raises RuntimeError if eight doublings leave a row unconverged.
    """
    for level in range(_DOUBLINGS + 1):
        nodes, weights = _panel_nodes(a, b, panels)
        # an elementwise product and numpy's own sum, not BLAS ddot, whose
        # threaded reduction order depends on the thread count; the
        # integrand is not kept, so it is freed before the next level
        total = np.sum(weights * f(nodes), axis=-1)
        sums = np.reshape(total, -1)
        if not level:
            values, done = np.empty_like(sums), np.zeros(sums.shape, dtype=bool)
        else:
            change = np.abs(sums - previous)
            # "not <=" keeps a NaN change unconverged
            fresh = ~done & (change <= rtol * np.maximum(1.0, np.abs(sums)))
            values[fresh] = sums[fresh]
            done |= fresh
            if done.all():
                return values if np.ndim(total) else float(values[0])
        previous = sums
        if level < _DOUBLINGS:
            panels *= 2
    row = int(np.flatnonzero(~done)[np.argmax(change[~done])])
    raise RuntimeError(f"quadrature on [{a:g}, {b:g}] did not converge with {panels} panels: "
                       f"last change {change[row]:.3g} (row {row}), rtol {rtol:g}")


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
    wm = sphere_volume(m - 1)

    def integrands(thetas: np.ndarray) -> np.ndarray:
        t = np.cos(thetas)
        q, dq, d2q = gegenbauer_eval_arrays(model, t)
        sm = np.sin(thetas) ** (m - 1)
        out = np.empty((len(kinds), t.size))
        for row, k in zip(out, kinds):
            np.multiply(wm * _MOMENT_INTEGRANDS[k](q, dq, d2q, t), sm, out=row)
        return out

    values = _integrate_theta(integrands, 0.0, math.pi, max(8, PANELS_PER_DEGREE * n))
    return float(values[0]) if isinstance(kind, str) else tuple(map(float, values))


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
