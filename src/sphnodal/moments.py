"""Expectation and second-moment integrals for the nodal volume and the
Leray measure.

Both second moments reduce to integrals over the separation variable
t = cos d(x, y) against the pushforward measure dmu.  The Leray variance
has the closed integrand 1/sqrt(1 - Q^2) - 1, bounded on all of [-1, 1] in
the theta parameterization, and is integrated in one piece.  The volume
second moment needs the two-point Kac-Rice kernel

    K = E_{N(0, Omega)} [ |w_1| |w_2| ] / (2 pi sqrt(1 - u^2)),

which has no closed form for general cross covariance and is estimated by
seeded Monte Carlo at every quadrature node.  The nodes are split over the
usable CPUs, and the estimate does not depend on their number.  Only this
second moment splits [-1, 1], at +-(1 - c0/n^2), into a nonsingular bulk,
where the kernel is integrated, and a singular remainder, where only the
bound K <= const * E/sqrt(1-u^2) is integrated and reported as a separate
budget term.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import covariance, specfun
from .geometry import sphere_volume
from .specfun import SphereModel

__all__ = [
    "MomentReport",
    "leray_expectation",
    "volume_expectation",
    "volume_constant",
    "kernel_K",
    "leray_variance",
    "leray_variance_asymptotic",
    "volume_second_moment",
]


# Relative bound on the kernel Monte Carlo error of the nonsingular integral;
# volume_second_moment widens the path count until its error meets it.
MC_RTOL = 1e-3


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

def kernel_K(blocks: covariance.CovarianceBlocks, mc_paths: int,
             seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of the kernel at every separation of the record,
    with its standard error; both have theta's shape.

    Draws N(0, Omega) through the symmetric square root, which on each
    2x2 block [[alpha, gamma], [gamma, alpha]] of Omega is [[p, q], [q, p]]
    with p, q = (sqrt(alpha + gamma) +- sqrt(alpha - gamma)) / 2.  The
    paths count antithetic pairs (z, -z), but only mc_paths/2 vectors z are
    drawn: |w| is even in z, so a pair's two values coincide and each draw
    stands for its pair.  The standard error is therefore taken over the
    mc_paths/2 independent draws.  Every node is checked for a
    degenerate Omega before any draw.  Node i draws from its own Philox
    stream keyed (seed, i), so the result is deterministic for a fixed seed
    and does not depend on evaluation order.  Every call draws each stream
    from its start, so a call with more paths redraws the draws of a call
    with fewer and continues past them.

    The nodes are split into contiguous shares, one per usable CPU and at
    most one per node; the calling thread runs the first share and a
    thread each of the others.  The draws, which take most of the time,
    release the interpreter lock, so the shares overlap.  Each node's
    arithmetic is the same in every share, so values and errors are the
    same bit for bit at any CPU count.  An error in any share is raised
    here after every share has ended.
    """
    if mc_paths < 4:
        raise ValueError(f"kernel Monte Carlo needs at least 4 paths (two antithetic "
                         f"pairs) for a standard error, got {mc_paths}")
    if mc_paths % 2:
        raise ValueError(f"kernel Monte Carlo counts its paths in antithetic pairs, so the "
                         f"path count must be even, got {mc_paths}")
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
    pairs = mc_paths // 2
    means = np.empty(len(p))
    sds = np.empty(len(p))
    # shares of contiguous nodes, which write disjoint slots of means and sds
    shares = max(1, min(_usable_cpus(), len(p)))
    bounds = [len(p) * k // shares for k in range(shares + 1)]
    failures = [None] * shares

    def run(share: int) -> None:
        try:
            _kernel_nodes(p, q, pairs, seed, bounds[share], bounds[share + 1], means, sds)
        except BaseException as exc:  # raised in the caller after the join
            failures[share] = exc

    helpers = [threading.Thread(target=run, args=(share,)) for share in range(1, shares)]
    for helper in helpers:
        helper.start()
    run(0)
    for helper in helpers:
        helper.join()
    for exc in failures:
        if exc is not None:
            raise exc
    denom = 2.0 * math.pi * np.sqrt(1.0 - np.asarray(blocks.u) ** 2)
    shape = bad.shape
    return means.reshape(shape) / denom, sds.reshape(shape) / math.sqrt(pairs) / denom


def _kernel_nodes(p: np.ndarray, q: np.ndarray, pairs: int, seed: int, lo: int, hi: int,
                  means: np.ndarray, sds: np.ndarray) -> None:
    """Pair-mean statistics of |w_1||w_2| at nodes lo..hi-1, into means and
    sds.  It runs on helper threads, so it calls numpy and private helpers
    only: the benchmark's span recorder wraps the public functions and is
    not thread-safe."""
    m = p.shape[1]
    j = np.arange(m)
    root = np.zeros((2 * m, 2 * m))
    z = np.empty((pairs, 2 * m))
    w = np.empty_like(z)
    prod = np.empty(pairs)
    other = np.empty(pairs)
    for i in range(lo, hi):
        root[j, j] = root[m + j, m + j] = p[i]
        root[j, m + j] = root[m + j, j] = q[i]
        bits = np.random.Philox(np.random.SeedSequence(_node_seed(seed, i)))
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Leray variance (pure quadrature)
# ---------------------------------------------------------------------------

def _mu_theta_weight(m: int, thetas: np.ndarray) -> np.ndarray:
    return sphere_volume(m - 1) * np.sin(thetas) ** (m - 1)


def _leray_integrand(model: SphereModel):
    """dmu (1/sqrt(1 - Q^2) - 1) in theta, written Q^2 / (s (1 + s)) with
    s = sqrt(1 - Q^2) so that no term cancels.  It is bounded on [0, pi]:
    1 - Q^2 ~ (E/m) theta^2 at the poles, where dmu ~ theta^(m-1)."""
    m = model.m

    def f(thetas: np.ndarray) -> np.ndarray:
        q = specfun.gegenbauer_q(model, np.cos(thetas))
        w = 1.0 - q * q
        if np.any(w <= 0.0):
            theta = float(np.asarray(thetas)[w <= 0.0][0])
            raise RuntimeError(f"Leray integrand undefined: 1 - Q_n^2 <= 0 at theta = {theta:g} "
                               f"(m={m}, n={model.n})")
        s = np.sqrt(w)
        return _mu_theta_weight(m, thetas) * (q * q / (s * (1.0 + s)))

    return f


def leray_variance(model: SphereModel) -> float:
    """(|S^m| / 2 pi) * integral of dmu (1/sqrt(1 - Q^2) - 1) over [-1, 1].

    This is E[L^2] - E[L]^2 with E[L]^2 = (|S^m| / 2 pi) * mu([-1, 1])
    subtracted inside the integrand, which is bounded, so one theta
    quadrature with degree-aware panels covers it.  The integrand depends
    on Q_n^2 and so is even about theta = pi/2: only [0, pi/2] is
    integrated.
    """
    if model.n == 0:
        raise ValueError("Leray variance needs degree >= 1")
    total = specfun._integrate_even_theta(_leray_integrand(model),
                                          max(8, specfun.PANELS_PER_DEGREE * model.n))
    return sphere_volume(model.m) / (2.0 * math.pi) * total


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


# ---------------------------------------------------------------------------
# Volume second moment (kernel quadrature)
# ---------------------------------------------------------------------------

def _split_theta(model: SphereModel, eps0: float) -> float:
    """Angle theta_c with cos theta_c = 1 - c0/n^2, the singular split."""
    c0 = specfun.find_c0(model, eps0)
    return math.acos(max(-1.0, 1.0 - c0 / model.n**2))


def _nonsingular_nodes(model: SphereModel, eps0: float):
    """Split angle theta_c, and the panel nodes of [theta_c, pi - theta_c]
    with their dmu weights."""
    theta_c = _split_theta(model, eps0)
    panels = max(8, specfun.PANELS_PER_DEGREE * model.n)
    nodes, weights = specfun._panel_nodes(theta_c, math.pi - theta_c, panels)
    return theta_c, nodes, weights * _mu_theta_weight(model.m, nodes)


def _tips(model: SphereModel, theta_c: float) -> float:
    """Integral of dmu / sqrt(1 - Q^2) over the singular tips [0, theta_c]
    and [pi - theta_c, pi], where it is bounded in theta.  The integrand
    depends on Q_n^2 alone and so is even about theta = pi/2, like those of
    ``specfun._integrate_even_theta``: the result is twice the [0, theta_c]
    tip, from 16 panels."""
    leray = _leray_integrand(model)

    def f(thetas: np.ndarray) -> np.ndarray:
        return _mu_theta_weight(model.m, thetas) + leray(thetas)

    return 2.0 * specfun._integrate_theta(f, 0.0, theta_c, 16)


def volume_second_moment(model: SphereModel, eps0: float = 0.9,
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
    stays visible.  If the accumulated Monte Carlo error exceeds ``MC_RTOL``
    times the nonsingular integral, the path count is doubled, up to three
    times, before giving up; each widened pass is a fresh ``kernel_K`` call that
    redraws every node's stream from its start, so a widened run equals a
    single run at the final path count.  Every node is checked for
    degeneracy before any draw, so the error lists every offending angle.
    """
    vol = sphere_volume(model.m)
    theta_c, nodes, weights = _nonsingular_nodes(model, eps0)
    blocks = covariance.blocks_at(model, nodes)

    for paths in (mc_paths, 2 * mc_paths, 4 * mc_paths, 8 * mc_paths):
        vals, errs = kernel_K(blocks, paths, seed)
        nonsing = vol * float(np.sum(weights * vals))
        mc_se = vol * float(np.sqrt(np.sum((weights * errs) ** 2)))
        if mc_se <= MC_RTOL * abs(nonsing):
            break
    else:
        raise RuntimeError(
            f"kernel Monte Carlo error {mc_se:g} still above tolerance "
            f"{MC_RTOL:g} * {abs(nonsing):g} after widening to {paths} paths"
        )

    # singular budget: integrate the kernel bound E/sqrt(1-Q^2) over B^c
    sing = vol * model.E * _tips(model, theta_c)

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
    )


def _node_seed(seed: int, index: int) -> int:
    # distinct, stable stream per (seed, node); SeedSequence hashes the pair
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])
