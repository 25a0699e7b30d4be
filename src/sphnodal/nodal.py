"""Nodal lines on triangulated S^2 and the statistics built from them.

A sampled eigenfunction is evaluated at every mesh vertex; each triangle
whose vertex signs disagree contributes one great-circle segment between
the linearly interpolated zero crossings of its two sign-change edges.
Total length approximates the nodal volume; dividing each segment by the
gradient norm at its midpoint gives the line-integral Leray estimate.

Monte Carlo experiments key each draw's coefficients by (seed, sample
index), so results replay exactly from the seed.  They extract each draw on
the antipodal half of the icosphere, which is what ``geometry.icosphere``
builds (10 * 4^level triangles), and double its sums: a degree-n
eigenfunction has f(-x) = (-1)^n f(x), so the other half holds a congruent
copy of the same nodal set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import ensemble, moments
from .geometry import IcoMesh, icosphere
from .specfun import SphereModel

__all__ = [
    "NodalSet",
    "ExperimentReport",
    "NearSingularSampleError",
    "check_experiment",
    "extract_nodal",
    "leray_estimate_line",
    "monte_carlo_experiment",
]

ZERO_VERTEX_TOL = 1e-13
VERTEX_NUDGE = 1e-7
MIN_MIDPOINT_GRADIENT = 1e-9


class NearSingularSampleError(RuntimeError):
    """A nodal segment midpoint carries an effectively vanishing gradient."""


@dataclass(frozen=True)
class NodalSet:
    """Zero-set polyline of one sample on one mesh."""

    segments: np.ndarray        # (S, 2, 3) unit endpoints
    lengths: np.ndarray         # (S,) great-circle length of each segment
    total_length: float         # sum of ``lengths``
    gradient_norms: np.ndarray  # (S,) |grad f| at segment midpoints


@dataclass
class ExperimentReport:
    """Aggregated Monte Carlo statistics with the matching theory values.

    ``theory_varL`` (and so ``ratio_varL``) is the leading-order
    ``moments.leray_variance_asymptotic``, 4 pi / N on S^2, not Var(L) at
    degree n; ``moments.leray_variance`` gives the latter (1.197 times
    4 pi / N at n = 20).
    """

    model: SphereModel
    sample_count: int
    mesh_level: int
    seed: int
    mean_Z: float
    var_Z: float
    se_Z: float
    mean_L: float
    var_L: float
    se_L: float
    theory_EZ: float
    theory_EL: float
    theory_varL: float
    excluded: int = 0

    def as_dict(self) -> dict:
        return {
            "m": self.model.m,
            "n": self.model.n,
            "N": self.model.N,
            "E": self.model.E,
            "samples": self.sample_count,
            "mesh_level": self.mesh_level,
            "seed": self.seed,
            "mean_Z": self.mean_Z,
            "var_Z": self.var_Z,
            "se_Z": self.se_Z,
            "mean_L": self.mean_L,
            "var_L": self.var_L,
            "se_L": self.se_L,
            "theory_EZ": self.theory_EZ,
            "theory_EL": self.theory_EL,
            "theory_varL": self.theory_varL,
            "ratio_Z": self.mean_Z / self.theory_EZ,
            "ratio_L": self.mean_L / self.theory_EL,
            "ratio_varL": self.var_L / self.theory_varL,
            "excluded": self.excluded,
        }


def _vertex_values(sample: ensemble.HarmonicSample, mesh: IcoMesh,
                   values: np.ndarray) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    # exact zeros at vertices would make crossings ambiguous; replace the
    # value by a re-evaluation a tiny step along the vertex's first edge:
    # towards the first other vertex, in column order, of the first triangle
    # that holds it
    zero = np.abs(vals) < ZERO_VERTEX_TOL
    if np.any(zero):
        idx = np.nonzero(zero)[0]
        flat = mesh.triangles.reshape(-1)
        hits = np.flatnonzero(zero[flat])
        _, first = np.unique(flat[hits], return_index=True)  # sorted like idx
        first = hits[first]
        neighbor = flat[first - first % 3 + (first % 3 == 0)]
        p = mesh.vertices[idx] + VERTEX_NUDGE * (mesh.vertices[neighbor] - mesh.vertices[idx])
        p /= np.linalg.norm(p, axis=1)[:, None]
        vals = vals.copy()  # ``values`` may be the caller's array
        vals[idx] = ensemble.eval_many(sample, p)
    return vals


def extract_nodal(sample: ensemble.HarmonicSample, mesh: IcoMesh,
                  values: np.ndarray) -> NodalSet:
    """March the triangles of ``mesh`` and collect the zero-crossing
    segments of ``sample``, whose values at the mesh vertices are
    ``values``.  Whether the mesh resolves the degree is the caller's
    check (``monte_carlo_experiment`` makes it once per run).
    """
    vals = _vertex_values(sample, mesh, values)

    # component form throughout: a 3-vector is a list of its x, y and z
    # arrays, and every sum over components runs in index order, the order
    # of the reduction inside np.linalg.norm, so the bits match the
    # row-wise norm and dot-product forms
    tri = mesh.triangles
    pos = vals > 0.0  # each vertex compared once, then gathered per column
    s0, s1, s2 = (pos[tri[:, c]] for c in range(3))
    crossed = np.flatnonzero((s0 != s1) | (s0 != s2))
    if crossed.size == 0:
        return NodalSet(segments=np.empty((0, 2, 3)), lengths=np.empty(0),
                        total_length=0.0, gradient_norms=np.empty(0))

    # rotate each crossed triangle so that its odd vertex (the one whose
    # sign differs) comes first; both crossings then sit on the edges
    # (odd, odd+1) and (odd, odd+2)
    s0, s1, s2 = s0[crossed], s1[crossed], s2[crossed]
    odd = np.where(s1 == s2, 0, np.where(s0 == s2, 1, 2))
    flat = tri.reshape(-1)
    i0, i1, i2 = (flat[3 * crossed + (odd + k) % 3] for k in range(3))
    f0, f1, f2 = vals[i0], vals[i1], vals[i2]
    w01 = f0 / (f0 - f1)
    w02 = f0 / (f0 - f2)

    verts = mesh.vertices
    p1, p2 = [], []
    for c in range(3):
        x0 = verts[i0, c]
        p1.append(x0 + w01 * (verts[i1, c] - x0))
        p2.append(x0 + w02 * (verts[i2, c] - x0))
    p1, p2 = _unit(p1), _unit(p2)

    lengths = np.arccos(np.clip(_dot3(p1, p2), -1.0, 1.0))
    mids = np.stack(_unit([a + b for a, b in zip(p1, p2)]), axis=1)
    grads = ensemble.eval_gradient_ambient_many(sample, mids).T
    segments = np.stack(p1 + p2, axis=1).reshape(-1, 2, 3)
    return NodalSet(segments=segments, lengths=lengths, total_length=float(lengths.sum()),
                    gradient_norms=np.sqrt(_dot3(grads, grads)))


def _dot3(a, b) -> np.ndarray:
    """Dot products of two 3-vectors given as x, y, z component arrays,
    summed in index order as np.sum(a * b, axis=1) sums a row."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _unit(p: list) -> list:
    """Component arrays of p divided by their Euclidean norm."""
    norm = np.sqrt(_dot3(p, p))
    return [c / norm for c in p]


def leray_estimate_line(sample: ensemble.HarmonicSample, nodal: NodalSet) -> float:
    """Line-integral Leray estimate: sum of segment length / |grad f| at
    the segment midpoint.  Raises NearSingularSampleError when a midpoint
    gradient is below 1e-9 so the caller can exclude and count the sample."""
    if nodal.segments.shape[0] == 0:
        raise ValueError("empty nodal set")
    if np.any(nodal.gradient_norms < MIN_MIDPOINT_GRADIENT):
        raise NearSingularSampleError("vanishing gradient on the nodal set")
    return float(np.sum(nodal.lengths / nodal.gradient_norms))


def check_experiment(model: SphereModel, samples: int) -> None:
    """Raise ValueError for a run that ``monte_carlo_experiment`` refuses
    before any work: a sphere other than S^2, a degree below 1 (no nodal
    set) or fewer than 2 samples (no sample variance)."""
    if model.m != 2:
        raise ValueError("mesh experiments only run on S^2")
    if model.n < 1:
        raise ValueError(f"a degree-{model.n} eigenfunction has no nodal set")
    if samples < 2:
        raise ValueError(f"a sample variance needs at least 2 samples, got {samples}")


def monte_carlo_experiment(model: SphereModel, mesh_level: int, samples: int,
                           seed: int, *, mesh: IcoMesh | None = None) -> ExperimentReport:
    """Draw ``samples`` eigenfunctions, extract nodal sets, and report the
    length and Leray statistics next to their theory values.

    A degree-n eigenfunction has f(-x) = (-1)^n f(x), so its nodal set is
    centrally symmetric, and so is the icosphere.  Every draw runs on the
    antipodal half that ``icosphere(mesh_level)`` builds (one triangle of
    each antipodal pair), and Z and L are twice the half's sums.  ``mesh``
    must be that half, and is used as given: a mesh without
    10 * 4^mesh_level triangles, such as the whole sphere, raises
    ValueError.

    Per-sample coefficient streams are keyed by (seed, sample index), so the
    report replays exactly from the seed.  Vertex data never exceeds
    H x min(samples, 2n+1) floats, where the half has
    H = 5 * 4^level + 5 * 2^level + 1 vertices (328,961 at level 8): with at
    most 2n+1 draws the basis is built one vertex block at a time and every
    draw's values are filled block by block; with more draws the (H, 2n+1)
    basis matrix is the smaller object and serves each draw in turn.
    Samples whose nodal midpoints carry vanishing gradients are excluded and
    counted; a warning fires if they exceed 1% of the draws, and fewer than
    2 kept draws raise, as do the runs that ``check_experiment`` refuses.
    A mesh coarser than pi/(8n) per edge warns once, before any sample is
    drawn.  The reported ``theory_varL`` is the leading-order 4 pi / N, not
    Var(L) at degree n (see ``ExperimentReport``).
    """
    check_experiment(model, samples)
    if mesh is None:
        mesh = icosphere(mesh_level)
    if mesh.triangles.shape[0] != 10 * 4 ** mesh_level:
        raise ValueError(f"a mesh of {mesh.triangles.shape[0]} triangles is not the "
                         f"level-{mesh_level} icosphere half")
    if mesh.edge_length_max > math.pi / (8.0 * model.n):
        warnings.warn(
            f"mesh edges up to {mesh.edge_length_max:.4f} rad exceed pi/(8n) = "
            f"{math.pi / (8 * model.n):.4f}; nodal lines are under-resolved",
            stacklevel=2,
        )
    basis = ensemble.HarmonicBasis(model.n)
    scale = math.sqrt(4.0 * math.pi / basis.size)
    coefs = [ensemble.rng_for(seed, idx).standard_normal(basis.size) for idx in range(samples)]

    if samples <= basis.size:
        # slices aligned with eval_basis_many's own blocks give exactly the
        # rows of the full basis matrix; one gemv per draw and slice gives
        # the full mat-vec's values (to the last bit at one BLAS thread).
        # One array per draw: a row (2.6 MB at level 8) can reuse heap memory
        # that an earlier mesh build in the process freed, while one
        # (samples, V) array would be mapped afresh on top of it
        verts = mesh.vertices
        raw = [np.empty(verts.shape[0]) for _ in range(samples)]
        for start in range(0, verts.shape[0], ensemble._BLOCK):
            block = ensemble.eval_basis_many(basis, verts[start:start + ensemble._BLOCK])
            for idx, a in enumerate(coefs):
                raw[idx][start:start + ensemble._BLOCK] = block @ a
            del block  # freed before the next block is built
        draw_values = (scale * row for row in raw)
    else:
        basis_matrix = ensemble.eval_basis_many(basis, mesh.vertices)
        draw_values = (scale * (basis_matrix @ a) for a in coefs)

    z_vals = np.full(samples, np.nan)
    l_vals = np.full(samples, np.nan)
    for idx, (a, values) in enumerate(zip(coefs, draw_values)):
        smp = ensemble.HarmonicSample(basis=basis, a=a, scale=scale)
        nodal = extract_nodal(smp, mesh, values)
        z_vals[idx] = 2.0 * nodal.total_length
        try:
            l_vals[idx] = 2.0 * leray_estimate_line(smp, nodal)
        except (NearSingularSampleError, ValueError):
            pass  # stays NaN, counted below

    good = ~np.isnan(l_vals)
    excluded = int(samples - good.sum())
    if samples - excluded < 2:
        raise ValueError(f"{excluded} of {samples} samples excluded as near-singular; "
                         f"the Leray variance needs at least 2")
    if excluded > 0.01 * samples:
        warnings.warn(f"{excluded} of {samples} samples excluded as near-singular")

    lv = l_vals[good]
    return ExperimentReport(
        model=model,
        sample_count=samples,
        mesh_level=mesh_level,
        seed=seed,
        mean_Z=float(z_vals.mean()),
        var_Z=float(z_vals.var(ddof=1)),
        se_Z=float(z_vals.std(ddof=1) / math.sqrt(samples)),
        mean_L=float(lv.mean()),
        var_L=float(lv.var(ddof=1)),
        se_L=float(lv.std(ddof=1) / math.sqrt(lv.size)),
        theory_EZ=moments.volume_expectation(model),
        theory_EL=moments.leray_expectation(model.m),
        theory_varL=moments.leray_variance_asymptotic(model),
        excluded=excluded,
    )
