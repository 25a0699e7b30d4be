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
copy of the same nodal set.  Each draw's values, zero-vertex nudge and sign
test are its own; the crossing geometry (interpolated endpoints, arc
lengths, midpoints) runs once per chunk of consecutive draws holding at
most _CHUNK_CROSSINGS crossings, and the midpoint gradients once per draw.
Every step is elementwise or a sum over one draw's slice, so the results
are those of extracting each draw on its own, bit for bit.
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
    "ExperimentReport",
    "NearSingularSampleError",
    "check_experiment",
    "monte_carlo_experiment",
]

ZERO_VERTEX_TOL = 1e-13
VERTEX_NUDGE = 1e-7
MIN_MIDPOINT_GRADIENT = 1e-9
# crossings per chunk of consecutive draws whose crossing geometry runs in
# one pass (``_draw_chunks``): enough for several small draws to share
# numpy's per-call cost, few enough that the pass's arrays (about 140 bytes
# a crossing at their peak) stay near 1 MB
_CHUNK_CROSSINGS = ensemble._BLOCK // 2
# _ROTATION[k, odd] = (odd + k) % 3, the column of a crossed triangle's k-th
# vertex counted from its odd one; a lookup costs less than integer modulo
_ROTATION = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


class NearSingularSampleError(RuntimeError):
    """A nodal segment midpoint carries an effectively vanishing gradient."""


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


def _sign_changes(mesh: IcoMesh, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the triangles whose vertex signs disagree, and the column
    of each one's odd vertex (the one whose sign differs)."""
    tri = mesh.triangles
    pos = vals > 0.0  # each vertex compared once, then gathered per column
    s0, s1, s2 = (pos[tri[:, c]] for c in range(3))
    crossed = np.flatnonzero((s0 != s1) | (s0 != s2))
    s0, s1, s2 = s0[crossed], s1[crossed], s2[crossed]
    return crossed, np.where(s1 == s2, 0, np.where(s0 == s2, 1, 2))


def _crossing_geometry(mesh: IcoMesh, draws: list) -> tuple:
    """Crossing geometry of consecutive draws in one pass: ``draws`` holds
    each draw's vertex values and ``_sign_changes``.  Returns the arc
    lengths, the (S, 3) unit midpoints and the two endpoints of every
    segment, draw after draw, each endpoint as x, y, z component arrays
    (the Monte Carlo path drops the endpoints; tests compare them).

    Every step is elementwise, so a draw's segments carry the same bits
    whichever draws share its pass.  Component form throughout: a 3-vector
    is a list of its x, y and z arrays, and every sum over components runs
    in index order, the order of the reduction inside np.linalg.norm, so
    the bits match the row-wise norm and dot-product forms.  Arithmetic
    runs in place where it can, which gives the bits of the plain
    expression with fewer temporaries.
    """
    # the outputs are allocated before the temporaries: freed, these then
    # leave one free stretch of heap above the outputs for the gradient
    # evaluation that follows, rather than a gap below them (at n = 20 on
    # level 5 that keeps peak RSS at the draw-by-draw value, 0.9 MB lower)
    size = sum(crossed.size for _, (crossed, _) in draws)
    lengths, mids = np.empty(size), np.empty((3, size))
    (i0, i1, i2), (w01, w02) = _crossing_corners(mesh, draws)
    p1, p2 = [], []
    for col in mesh.vertices.T:
        x0 = col.take(i0)
        for p, i, w in ((p1, i1, w01), (p2, i2, w02)):
            x = col.take(i)  # becomes x0 + w * (x - x0)
            x -= x0
            x *= w
            x += x0
            p.append(x)
    del i0, i1, i2, w01, w02, x0  # freed before the arc lengths and midpoints
    _normalise(p1)
    _normalise(p2)

    np.arccos(np.clip(_dot3(p1, p2), -1.0, 1.0), out=lengths)
    # midpoints component-major: the (S, 3) transpose hands the gradient
    # evaluator contiguous x, y and z rows
    for c in range(3):
        np.add(p1[c], p2[c], out=mids[c])
    _normalise(mids)
    return lengths, mids.T, p1, p2


def _crossing_corners(mesh: IcoMesh, draws: list) -> tuple:
    """Vertex indices of every crossed triangle of ``draws``, rotated so
    that its odd vertex comes first, and the interpolation weights
    f0 / (f0 - f1) and f0 / (f0 - f2) of its crossings on the edges
    (odd, odd+1) and (odd, odd+2)."""
    if len(draws) == 1:
        vals, (crossed, odd) = draws[0]
        shift = 0
    else:
        # one value array for the pass: a draw's vertex indices are shifted
        # to its own copy of the vertices
        vals = np.concatenate([v for v, _ in draws])
        crossed = np.concatenate([c for _, (c, _) in draws])
        odd = np.concatenate([o for _, (_, o) in draws])
        shift = np.repeat(np.arange(len(draws)) * mesh.vertices.shape[0],
                          [c.size for _, (c, _) in draws])
    slot = 3 * crossed
    flat = mesh.triangles.reshape(-1)
    corners = [flat.take(slot + _ROTATION[k].take(odd)) for k in range(3)]
    f0, f1, f2 = (vals.take(i + shift) for i in corners)
    w01 = np.divide(f0, np.subtract(f0, f1, out=f1), out=f1)
    w02 = np.divide(f0, np.subtract(f0, f2, out=f2), out=f2)
    return corners, (w01, w02)


def _draw_chunks(mesh: IcoMesh, draws):
    """Group consecutive draws and run their crossing geometry in one pass.

    ``draws`` yields (sample, vertex values).  A draw's own steps (the zero
    vertex nudge and the sign test) run as it arrives; a chunk closes
    before the next draw would take its crossings past _CHUNK_CROSSINGS, so
    a larger draw forms a chunk of its own.  Yields, per chunk, its samples,
    the bounds of each draw's slice of the segments, the arc lengths and
    the unit midpoints.
    """
    chunk, crossings = [], 0
    for sample, values in draws:
        vals = _vertex_values(sample, mesh, values)
        changes = _sign_changes(mesh, vals)
        if chunk and crossings + changes[0].size > _CHUNK_CROSSINGS:
            yield _chunk_geometry(mesh, chunk)
            crossings = 0
        chunk.append((sample, vals, changes))
        crossings += changes[0].size
    yield _chunk_geometry(mesh, chunk)


def _chunk_geometry(mesh: IcoMesh, chunk: list) -> tuple:
    """``_draw_chunks``'s yield for one chunk, without the endpoints.  It
    empties ``chunk``, so the chunk's vertex values and crossing indices
    are freed before its gradients are evaluated."""
    samples = [s for s, _, _ in chunk]
    bounds = np.cumsum([0] + [ch[0].size for _, _, ch in chunk])
    lengths, mids = _crossing_geometry(mesh, [(v, ch) for _, v, ch in chunk])[:2]
    chunk.clear()
    return samples, bounds, lengths, mids


def _dot3(a, b) -> np.ndarray:
    """Dot products of two 3-vectors given as x, y, z component arrays,
    summed in index order as np.sum(a * b, axis=1) sums a row."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _normalise(p) -> None:
    """Divide the x, y, z component arrays of p by their Euclidean norm, in
    place."""
    norm = np.sqrt(_dot3(p, p))
    for c in p:
        c /= norm


def _leray_sum(lengths: np.ndarray, gradient_norms: np.ndarray) -> float:
    """Sum of length / |grad f| over one draw's segments, or the reason the
    draw is excluded: ValueError for an empty nodal set and
    NearSingularSampleError for a midpoint gradient below
    MIN_MIDPOINT_GRADIENT."""
    if lengths.size == 0:
        raise ValueError("empty nodal set")
    if np.any(gradient_norms < MIN_MIDPOINT_GRADIENT):
        raise NearSingularSampleError("vanishing gradient on the nodal set")
    return float(np.sum(lengths / gradient_norms))


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
    Small draws share one pass of the crossing geometry: a chunk of
    consecutive draws closes before the next draw would take it past
    _CHUNK_CROSSINGS crossings, and a larger draw forms a chunk of its own.
    Gradients are evaluated once per draw, at that draw's midpoints, and
    every statistic equals that of extracting each draw on its own, bit for
    bit.  With at most 2n+1 draws
    each vertex-value row is scaled in place and dropped once its draw is
    done.  Samples whose nodal midpoints carry vanishing gradients (or have
    no nodal set) are excluded and counted; a warning fires if they exceed 1% of the draws, and fewer than
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
        for row in raw:
            row *= scale  # in place: the bits of scale * row, without a copy
        draw_values = (raw.pop(0) for _ in coefs)  # a row is freed once its draw is done
    else:
        basis_matrix = ensemble.eval_basis_many(basis, mesh.vertices)
        draw_values = (scale * (basis_matrix @ a) for a in coefs)

    z_vals = np.full(samples, np.nan)
    l_vals = np.full(samples, np.nan)
    draws = ((ensemble.HarmonicSample(basis=basis, a=a, scale=scale), values)
             for a, values in zip(coefs, draw_values))
    idx = 0
    for chunk_samples, bounds, lengths, mids in _draw_chunks(mesh, draws):
        for smp, lo, hi in zip(chunk_samples, bounds[:-1], bounds[1:]):
            grads = ensemble.eval_gradient_ambient_many(smp, mids[lo:hi]).T
            z_vals[idx] = 2.0 * lengths[lo:hi].sum()
            try:
                l_vals[idx] = 2.0 * _leray_sum(lengths[lo:hi], np.sqrt(_dot3(grads, grads)))
            except (NearSingularSampleError, ValueError):
                pass  # stays NaN, counted below
            idx += 1

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
