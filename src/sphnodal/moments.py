"""Expectation and second-moment integrals for the nodal volume and the
Leray measure.

Both second moments reduce to integrals over the separation variable
t = cos d(x, y) against the pushforward measure dmu.  The Leray one has
the closed integrand 1/sqrt(1 - Q^2); the volume one needs the two-point
Kac-Rice kernel

    K = E_{N(0, Omega)} [ |w_1| |w_2| ] / (2 pi sqrt(1 - u^2)),

which has no closed form for general cross covariance and is estimated by
seeded Monte Carlo at every quadrature node.  [-1, 1] is split at
+-(1 - c0/n^2) into a nonsingular bulk, where the kernel is integrated,
and a singular remainder, where only the bound K <= const * E/sqrt(1-u^2)
is integrated and reported as a separate budget term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import covariance, specfun
from .geometry import sphere_volume
from .specfun import SphereModel

__all__ = [
    "QuadratureSpec",
    "MomentReport",
    "leray_expectation",
    "volume_expectation",
    "volume_constant",
    "kernel_K",
    "leray_second_moment",
    "leray_variance",
    "leray_variance_asymptotic",
    "volume_second_moment",
    "sigma_scaling_report",
    "singular_interval_mass",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution policy for the separation-variable integrals."""

    panels_per_oscillation: int = 8
    relative_tolerance: float = 1e-10
    singular_split_eps0: float = 0.9

    def __post_init__(self):
        if self.panels_per_oscillation < 8:
            raise ValueError("need at least 8 panels per oscillation")
        if not (1e-12 <= self.relative_tolerance <= 1e-3):
            raise ValueError("relative tolerance must lie in [1e-12, 1e-3]")
        if not (0.0 < self.singular_split_eps0 < 1.0):
            raise ValueError("eps0 must lie in (0, 1)")


@dataclass
class MomentReport:
    """Second-moment bookkeeping for one model."""

    model: SphereModel
    expectation: float
    second_moment: float
    variance: float
    theory_asymptotic: float
    ratio: float
    singular_contribution: float
    nonsingular_contribution: float
    mc_std_error: float = 0.0
    mc_paths: int = 0
    seed: int = 0

    def as_dict(self) -> dict:
        return {
            "m": self.model.m,
            "n": self.model.n,
            "N": self.model.N,
            "E": self.model.E,
            "expectation": self.expectation,
            "second_moment": self.second_moment,
            "variance": self.variance,
            "theory_asymptotic": self.theory_asymptotic,
            "ratio": self.ratio,
            "singular_contribution": self.singular_contribution,
            "nonsingular_contribution": self.nonsingular_contribution,
            "mc_std_error": self.mc_std_error,
            "mc_paths": self.mc_paths,
            "seed": self.seed,
        }


def leray_expectation(m: int) -> float:
    """|S^m| / sqrt(2 pi); independent of the degree."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return sphere_volume(m) / math.sqrt(2.0 * math.pi)


def volume_constant(m: int) -> float:
    """c_m = 2 pi^{m/2} / (sqrt(m) Gamma(m/2)), the prefactor of sqrt(E)
    in the expected nodal volume."""
    return 2.0 * math.exp((m / 2.0) * math.log(math.pi) - math.lgamma(m / 2.0)) / math.sqrt(m)


def volume_expectation(model: SphereModel) -> float:
    """Expected nodal volume c_m sqrt(E)."""
    return volume_constant(model.m) * math.sqrt(model.E)


# ---------------------------------------------------------------------------
# Kernel Monte Carlo
# ---------------------------------------------------------------------------

def kernel_K(blocks: covariance.CovarianceBlocks, mc_paths: int, seed: int, *,
             streams: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of the kernel at every separation of the record,
    with its standard error; both have theta's shape.

    Draws N(0, Omega) through the symmetric square root, which on each
    2x2 block [[alpha, gamma], [gamma, alpha]] of Omega is [[p, q], [q, p]]
    with p, q = (sqrt(alpha + gamma) +- sqrt(alpha - gamma)) / 2, in
    antithetic pairs (z, -z); statistics are taken over pair means so the
    reported standard error stays honest.  Every node is checked for a
    degenerate Omega before any draw.  Node i draws from its own Philox
    stream keyed (seed, i), so the result is deterministic for a fixed seed
    and does not depend on evaluation order.

    ``streams``, a zeroed (nodes, PHILOX_WORDS) uint64 array on the first
    call, carries the streams from one call to the next: each node's
    Philox state is saved in its row after drawing, and a row that holds a
    state is continued rather than restarted.  A second call with the same
    array therefore draws the pairs that follow the first call's, which is
    how ``volume_second_moment`` doubles its paths.
    """
    if mc_paths < 4:
        raise ValueError(f"kernel Monte Carlo needs at least 4 paths (two antithetic "
                         f"pairs) for a standard error, got {mc_paths}")
    if mc_paths % 2:
        raise ValueError(f"kernel Monte Carlo draws antithetic pairs, so the path count "
                         f"must be even, got {mc_paths}")
    m = blocks.model.m
    eigs = covariance.omega_spectrum(blocks)
    bad = covariance.degenerate(eigs, blocks.scale)
    if np.any(bad):
        thetas = np.broadcast_to(blocks.theta, bad.shape)[bad]
        smallest = float(eigs[bad].min())
        raise covariance.DegenerateCovarianceError(
            f"kernel undefined: reduced covariance degenerate at {thetas.size} quadrature "
            f"nodes (first few thetas: {[round(float(t), 4) for t in thetas[:5]]}, "
            f"min eigenvalue {smallest:g}); increase the degree",
            eigenvalue=smallest,
            theta=float(thetas[0]),
        )
    roots = np.sqrt(eigs)
    p = 0.5 * (roots[..., 1] + roots[..., 0]).reshape(-1, m)
    q = 0.5 * (roots[..., 1] - roots[..., 0]).reshape(-1, m)
    j = np.arange(m)
    root = np.zeros((2 * m, 2 * m))
    pairs = mc_paths // 2
    means = np.empty(len(p))
    sds = np.empty(len(p))
    z = np.empty((pairs, 2 * m))
    w = np.empty_like(z)
    prod = np.empty(pairs)
    other = np.empty(pairs)
    for i in range(len(p)):
        root[j, j] = root[m + j, m + j] = p[i]
        root[j, m + j] = root[m + j, j] = q[i]
        bits = np.random.Philox(np.random.SeedSequence(_node_seed(seed, i)))
        if streams is not None and streams[i].any():
            bits.state = _unpack_philox(streams[i])
        np.random.Generator(bits).standard_normal(out=z)
        np.matmul(z, root, out=w)
        np.multiply(w, w, out=w)
        # |w_1|^2 and |w_2|^2 summed column by column in index order, the
        # order of the reduction inside np.linalg.norm, so the bits match it
        np.add(w[:, 0], w[:, 1], out=prod)
        np.add(w[:, m], w[:, m + 1], out=other)
        for k in range(2, m):
            prod += w[:, k]
            other += w[:, m + k]
        np.sqrt(prod, out=prod)
        np.sqrt(other, out=other)
        prod *= other
        # |w| is even in z, so each antithetic partner repeats the value and
        # the pair mean is the value itself
        means[i] = np.mean(prod)
        sds[i] = np.std(prod, ddof=1)
        if streams is not None:
            streams[i] = _pack_philox(bits.state)
    denom = 2.0 * math.pi * np.sqrt(1.0 - np.asarray(blocks.u) ** 2)
    shape = bad.shape
    return means.reshape(shape) / denom, sds.reshape(shape) / math.sqrt(pairs) / denom


# A Philox state as one row of words: counter (4), key (2), buffer (4),
# buffer_pos, has_uint32, uinteger.
PHILOX_WORDS = 13


def _pack_philox(state: dict) -> np.ndarray:
    tail = np.array([state["buffer_pos"], state["has_uint32"], state["uinteger"]], np.uint64)
    return np.concatenate((state["state"]["counter"], state["state"]["key"], state["buffer"], tail))


def _unpack_philox(row: np.ndarray) -> dict:
    return {"bit_generator": "Philox",
            "state": {"counter": row[0:4].copy(), "key": row[4:6].copy()},
            "buffer": row[6:10].copy(), "buffer_pos": int(row[10]),
            "has_uint32": int(row[11]), "uinteger": int(row[12])}


def _merge_passes(pairs_a: int, vals_a, errs_a, pairs_b: int, vals_b, errs_b):
    """Chan's merge of two per-node (count, mean, M2) summaries of kernel
    passes over the same nodes, in the kernel's units: the count is in
    antithetic pairs, the mean is K and M2 = se^2 * pairs * (pairs - 1)."""
    pairs = pairs_a + pairs_b
    delta = vals_b - vals_a
    mean = vals_a + delta * (pairs_b / pairs)
    m2 = (errs_a**2 * (pairs_a * (pairs_a - 1)) + errs_b**2 * (pairs_b * (pairs_b - 1))
          + delta**2 * (pairs_a * pairs_b / pairs))
    return mean, np.sqrt(m2 / (pairs * (pairs - 1)))


# ---------------------------------------------------------------------------
# Leray moments (pure quadrature)
# ---------------------------------------------------------------------------

def _split_theta(model: SphereModel, eps0: float) -> float:
    """Angle theta_c with cos theta_c = 1 - c0/n^2, the singular split."""
    c0 = specfun.find_c0(model, eps0)
    return math.acos(max(-1.0, 1.0 - c0 / model.n**2))


def _mu_theta_weight(m: int, thetas: np.ndarray) -> np.ndarray:
    return specfun.mu_weight_constant(m) * np.sin(thetas) ** (m - 1)


def _nonsingular_nodes(model: SphereModel, quad: QuadratureSpec):
    """Split angle theta_c, and the panel nodes of [theta_c, pi - theta_c]
    with their dmu weights."""
    theta_c = _split_theta(model, quad.singular_split_eps0)
    panels = max(8, quad.panels_per_oscillation * model.n)
    nodes, weights = specfun._panel_nodes(theta_c, math.pi - theta_c, panels)
    return theta_c, nodes, weights * _mu_theta_weight(model.m, nodes)


def _leray_integrand(model: SphereModel):
    m = model.m

    def f(thetas: np.ndarray) -> np.ndarray:
        q = specfun.gegenbauer_q(model, np.cos(thetas))
        w = 1.0 - q * q
        if np.any(w <= 0.0):
            theta = float(np.asarray(thetas)[w <= 0.0][0])
            raise RuntimeError(f"Leray integrand undefined: 1 - Q_n^2 <= 0 at theta = {theta:g} "
                               f"(m={m}, n={model.n})")
        return _mu_theta_weight(m, thetas) / np.sqrt(w)

    return f


def _integrate(f, a, b, panels, rtol):
    return specfun._integrate_theta(f, a, b, panels, rtol=rtol)


def leray_second_moment(model: SphereModel, quad: QuadratureSpec | None = None) -> float:
    """(|S^m| / 2 pi) * integral of dmu / sqrt(1 - Q^2) over [-1, 1].

    The bulk is integrated with degree-aware panels; the two endpoint
    pieces (inside the singular split) are integrated in the theta
    parameterization, where the integrand is bounded, with refined panels.
    """
    quad = quad or QuadratureSpec()
    m, n = model.m, model.n
    if n == 0:
        raise ValueError("second moment needs degree >= 1")
    f = _leray_integrand(model)
    rtol = quad.relative_tolerance
    if n < 2:
        total = _integrate(f, 0.0, math.pi, max(16, quad.panels_per_oscillation), rtol)
    else:
        theta_c = _split_theta(model, quad.singular_split_eps0)
        panels = max(8, quad.panels_per_oscillation * n)
        bulk = _integrate(f, theta_c, math.pi - theta_c, panels, rtol)
        tip_lo = _integrate(f, 0.0, theta_c, 16, rtol)
        tip_hi = _integrate(f, math.pi - theta_c, math.pi, 16, rtol)
        total = bulk + tip_lo + tip_hi
    return sphere_volume(m) / (2.0 * math.pi) * total


def leray_variance(model: SphereModel, quad: QuadratureSpec | None = None) -> float:
    return leray_second_moment(model, quad) - leray_expectation(model.m) ** 2


def leray_variance_asymptotic(model: SphereModel) -> float:
    """Leading-order variance of the Leray measure,

        2^{m-2} pi^{(m-2)/2} Gamma(m/2) |S^m| / ((m-1)! N).

    The (m-1)! comes from rewriting the n^{-(m-1)} decay of the second
    moment of Q_n through N ~ 2 n^{m-1}/(m-1)!; at m = 2 it is invisible.
    """
    m = model.m
    const = (
        2.0 ** (m - 2)
        * math.pi ** ((m - 2) / 2.0)
        * math.gamma(m / 2.0)
        * sphere_volume(m)
        / math.factorial(m - 1)
    )
    return const / model.N


def singular_interval_mass(model: SphereModel, eps0: float = 0.9) -> float:
    """mu measure of the complement of the nonsingular interval."""
    theta_c = _split_theta(model, eps0)
    f = lambda th: _mu_theta_weight(model.m, th)
    lo = _integrate(f, 0.0, theta_c, 16, 1e-12)
    hi = _integrate(f, math.pi - theta_c, math.pi, 16, 1e-12)
    return lo + hi


# ---------------------------------------------------------------------------
# Volume second moment (kernel quadrature)
# ---------------------------------------------------------------------------

def volume_second_moment(model: SphereModel, quad: QuadratureSpec | None = None,
                         mc_paths: int = 20000, seed: int = 0) -> MomentReport:
    """Second moment of the nodal volume, |S^m| * integral of K dmu.

    The kernel is Monte Carlo estimated at every node of the nonsingular
    interval; per-node generator streams are keyed by (seed, node index),
    so the result does not depend on evaluation order.  On the singular
    interval the kernel has no usable estimator, only the upper bound
    E/sqrt(1-u^2); its integral is taken as that piece's contribution, so
    ``second_moment`` (and hence ``variance``) is a one-sided, upper-flavored
    estimate.  That keeps second_moment >= expectation^2 structurally; the
    split between the measured bulk and the bounded remainder is reported in
    ``nonsingular_contribution`` / ``singular_contribution`` so the budget
    stays visible.  If the accumulated Monte Carlo error exceeds the
    quadrature tolerance the path count is doubled a few times before
    giving up; a doubled pass continues each node's stream and merges the
    new pairs into the running per-node statistics, so it equals one
    fresh pass at the final count up to rounding.  Every node is checked
    for degeneracy before any draw, so the error lists every offending
    angle.
    """
    quad = quad or QuadratureSpec(relative_tolerance=1e-3)
    vol = sphere_volume(model.m)
    theta_c, nodes, weights = _nonsingular_nodes(model, quad)
    blocks = covariance.blocks_at(model, nodes)

    streams = np.zeros((nodes.size, PHILOX_WORDS), np.uint64)
    paths = mc_paths
    vals, errs = kernel_K(blocks, paths, seed, streams=streams)
    for doubling in range(4):
        nonsing = vol * float(np.dot(weights, vals))
        mc_se = vol * float(np.sqrt(np.sum((weights * errs) ** 2)))
        if mc_se <= quad.relative_tolerance * abs(nonsing):
            break
        if doubling == 3:
            raise RuntimeError(
                f"kernel Monte Carlo error {mc_se:g} still above tolerance "
                f"{quad.relative_tolerance:g} * {abs(nonsing):g} after widening to {paths} paths"
            )
        # the doubled pass continues every node's stream, so it draws only the new pairs
        more, more_errs = kernel_K(blocks, paths, seed, streams=streams)
        vals, errs = _merge_passes(paths // 2, vals, errs, paths // 2, more, more_errs)
        paths *= 2

    # singular budget: integrate the kernel bound E/sqrt(1-Q^2) over B^c
    f_bound = _leray_integrand(model)
    sing = vol * model.E * (
        _integrate(f_bound, 0.0, theta_c, 16, 1e-10)
        + _integrate(f_bound, math.pi - theta_c, math.pi, 16, 1e-10)
    )

    expectation = volume_expectation(model)
    second_moment = nonsing + sing
    variance = second_moment - expectation**2
    theory = model.E / math.sqrt(model.N)
    return MomentReport(
        model=model,
        expectation=expectation,
        second_moment=second_moment,
        variance=variance,
        theory_asymptotic=theory,
        ratio=variance / theory,
        singular_contribution=sing,
        nonsingular_contribution=nonsing,
        mc_std_error=mc_se,
        mc_paths=paths,
        seed=seed,
    )


def _node_seed(seed: int, index: int) -> int:
    # distinct, stable stream per (seed, node); SeedSequence hashes the pair
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def sigma_scaling_report(model: SphereModel, quad: QuadratureSpec | None = None) -> tuple[float, float]:
    """Integrals of the spectral norm of S and of its square over the
    nonsingular interval, against dmu."""
    _, nodes, weights = _nonsingular_nodes(model, quad or QuadratureSpec())
    blocks = covariance.blocks_at(model, nodes)
    sigma = covariance.sigma_norm(covariance.omega_spectrum(blocks), blocks.scale)
    return float(np.dot(weights, sigma)), float(np.dot(weights, sigma**2))
