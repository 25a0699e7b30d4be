"""Correctness gate for CLI artifacts.

Every artifact row is one checked operation.  A row fails when any of its
cells breaks a rule:

- error-estimate columns stay under fixed invariant bounds;
- deterministic columns match the values recorded at the seed commit
  (``reference.json``) to 1e-8 relative;
- Monte Carlo columns match the seed commit within ``K_SIGMA`` of their
  standard errors: against the value recorded for the same seed when there is
  one, otherwise against the seed commit's pooled estimate (for mc-verify,
  theory plus the recorded mesh bias), combining both standard errors;
- sample variances and standard errors match the seed commit on a log scale,
  within ``K_SPREAD`` of the Gaussian sampling error of a variance
  (``_spread_sd``), so that an inflated standard error cannot widen the
  tolerance of its estimate;
- derived columns agree with the columns they are computed from.

A command that exits non-zero, or whose artifact cannot be read, fails all of
its expected rows.
"""

from __future__ import annotations

import json
import math

from workloads import Invocation

RTOL = 1e-8
ATOL = 1e-13
DERIVED_RTOL = 1e-9
K_SIGMA = 5.0
# K_SIGMA times 3 for non-Gaussian tails: at the seed commit, over 200 seeds
# the log of K_se scatters by 1.6-2.8 Gaussian sampling errors (per row), and
# over 47 seeds the log of var_L (n=20, level 5) by 1.8, skewed to the right.
K_SPREAD = 3 * K_SIGMA

# Error estimates: roundoff-sized, so checked against bounds, not recorded values.
BOUNDS = {
    "q2_rel_err": 1e-9,
    "det_identity_max_rel_err": 1e-8,
    "fd_max_rel_err": 1e-5,  # acceptance criterion 7's finite-difference bound
}
# Monte Carlo estimate -> the column holding its standard error.
MC_COLUMNS = {"mean_Z": "se_Z", "mean_L": "se_L", "nonsingular": "mc_std_error", "K": "K_se"}
# Sample variances and standard errors -> (kind, samples behind the estimate).
SPREAD = {
    "var_Z": ("variance", lambda row, config: row["samples"]),
    "var_L": ("variance", lambda row, config: row["samples"] - row["excluded"]),
    "mc_std_error": ("std_error", lambda row, config: row["mc_paths"] // 2),  # antithetic pairs
    "K_se": ("std_error", lambda row, config: config["mc_paths"] // 2),
}
# Per command, derived column -> (value it should equal, scale of the comparison).
DERIVED = {
    "mc-verify": {
        "ratio_Z": lambda r: (r["mean_Z"] / r["theory_EZ"], r["ratio_Z"]),
        "ratio_L": lambda r: (r["mean_L"] / r["theory_EL"], r["ratio_L"]),
        "ratio_varL": lambda r: (r["var_L"] / r["theory_varL"], r["ratio_varL"]),
        "se_Z": lambda r: (math.sqrt(r["var_Z"] / r["samples"]), r["se_Z"]),
        "se_L": lambda r: (math.sqrt(r["var_L"] / (r["samples"] - r["excluded"])), r["se_L"]),
    },
    "volume-variance": {
        "second_moment": lambda r: (r["nonsingular"] + r["singular_budget"], r["second_moment"]),
        "variance": lambda r: (r["second_moment"] - r["expectation"] ** 2, r["second_moment"]),
        "ratio": lambda r: (r["variance"] / r["theory_scale"],
                            r["second_moment"] / r["theory_scale"]),
    },
}
# Columns the self-test perturbs, one at a time, on the last row.
PROBES = {
    "mc-verify": ("theory_EZ", "mean_Z", "var_L", "se_L"),
    "volume-variance": ("singular_budget", "nonsingular", "mc_std_error"),
    "kernel-profile": ("sigma_norm", "K", "K_se"),
    "moments-table": ("q2_quad",),
    "leray-variance": ("var_quad",),
    "covariance-check": ("min_omega_eig_over_scale",),
}
SPREAD_PROBE_FACTOR = 1e4  # beyond K_SPREAD even for var_L over 10 samples


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _spread_sd(column: str, samples: int) -> float:
    """Standard deviation of the log of a sample variance (or of a standard
    error) over ``samples`` Gaussian draws, to first order."""
    kind, _ = SPREAD[column]
    var_sd = math.sqrt(2.0 / (samples - 1))
    return var_sd if kind == "variance" else var_sd / 2.0


def _matches(got, want) -> bool:
    if isinstance(want, int) and not isinstance(want, bool):
        return isinstance(got, int) and got == want
    if isinstance(want, float):
        return _is_number(got) and abs(got - want) <= RTOL * abs(want) + ATOL
    return got == want


class Gate:
    """Checks artifacts of one benchmark seed against ``reference.json``."""

    def __init__(self, reference: dict, seed: int):
        self.reference = reference["invocations"]
        self.seed = seed

    def check(self, inv: Invocation, exit_code: int, text: str | None) -> tuple[int, list[str]]:
        """Return (failed rows, problems) for one artifact."""
        if exit_code != 0 or text is None:
            return inv.expected_rows, [f"{inv.key}: exit code {exit_code}"]
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return inv.expected_rows, [f"{inv.key}: unreadable artifact ({exc})"]
        ref = self.reference.get(inv.key)
        problems = self._check_shape(inv, doc, ref)
        if problems:
            return inv.expected_rows, problems
        failed = 0
        for i, cells in enumerate(doc["rows"]):
            row = dict(zip(doc["columns"], cells))
            row_problems = self._check_row(inv, ref, i, row, doc["config"])
            failed += bool(row_problems)
            problems += [f"{inv.key} row {i}: {p}" for p in row_problems]
        return failed, problems

    def _check_shape(self, inv, doc, ref) -> list[str]:
        if ref is None:
            return [f"{inv.key}: no reference recorded"]
        problems = []
        config = doc.get("config", {})
        want_seed = self.seed if inv.seeded else 0
        if config.get("command") != inv.command or config.get("seed") != want_seed:
            problems.append(f"{inv.key}: config echo {config.get('command')!r} "
                            f"seed {config.get('seed')!r}")
        if doc.get("columns") != ref["columns"]:
            problems.append(f"{inv.key}: columns {doc.get('columns')}")
        rows = doc.get("rows")
        if not isinstance(rows, list) or len(rows) != inv.expected_rows:
            problems.append(f"{inv.key}: expected {inv.expected_rows} rows")
        elif any(not isinstance(r, list) or len(r) != len(ref["columns"]) for r in rows):
            problems.append(f"{inv.key}: ragged rows")
        if doc.get("comments") != ref["comments"]:
            problems.append(f"{inv.key}: comments {doc.get('comments')}")
        return problems

    def _check_row(self, inv, ref, i, row, config) -> list[str]:
        problems = []
        fixed = dict(zip(ref["columns"], ref["rows"][i]))
        by_seed = ref.get("by_seed", {}).get(str(self.seed))
        derived = DERIVED.get(inv.command, {})
        for col, got in row.items():
            if col in BOUNDS:
                if not (_is_number(got) and got <= BOUNDS[col]):
                    problems.append(f"{col}={got!r} above bound {BOUNDS[col]:g}")
            elif col in MC_COLUMNS:
                se = row[MC_COLUMNS[col]]
                if not (_is_number(got) and _is_number(se) and se > 0):
                    problems.append(f"{col}={got!r} with standard error {se!r}")
                    continue
                if by_seed is not None:
                    want, tol = by_seed[col][i], K_SIGMA * se
                else:
                    pooled = ref["pooled"][col]
                    want = pooled["value"][i]
                    tol = K_SIGMA * math.hypot(se, pooled["se"][i])
                if abs(got - want) > tol:
                    problems.append(f"{col}={got!r} is {abs(got - want) / tol * K_SIGMA:.1f} "
                                    f"standard errors from {want!r}")
            elif col in SPREAD:
                problems += self._check_spread(ref, i, col, got, row, config)
            elif col in derived:
                try:
                    want, scale = derived[col](row)
                except (TypeError, ZeroDivisionError):
                    want, scale = math.nan, math.nan
                if not (_is_number(got) and abs(got - want) <= DERIVED_RTOL * abs(scale)):
                    problems.append(f"{col}={got!r} inconsistent with {want!r}")
            elif col == "seed":
                if got != self.seed:
                    problems.append(f"seed={got!r}")
            elif col == "excluded":
                if not (isinstance(got, int) and 0 <= got <= row["samples"]):
                    problems.append(f"excluded={got!r}")
            elif not _matches(got, fixed[col]):
                problems.append(f"{col}={got!r} differs from recorded {fixed[col]!r}")
        return problems

    def _check_spread(self, ref, i, col, got, row, config) -> list[str]:
        try:
            samples = SPREAD[col][1](row, config)
        except (KeyError, TypeError):
            samples = None
        if not (_is_number(got) and got > 0 and isinstance(samples, int) and samples > 1):
            return [f"{col}={got!r} over {samples!r} samples"]
        sd = _spread_sd(col, samples)
        by_seed = ref["by_seed"].get(str(self.seed))
        if by_seed is not None:
            want = by_seed[col][i]
        else:
            pooled = ref["pooled"][col]
            want = pooled["value"][i]
            sd *= math.sqrt(1.0 + 1.0 / pooled["seeds"])
        off = abs(math.log(got / want))
        if off > K_SPREAD * sd:
            return [f"{col}={got!r} is {off / sd:.1f} sampling errors from {want!r}"]
        return []


def perturbed_artifacts(inv: Invocation, text: str) -> list[tuple[str, str]]:
    """Copies of a passing artifact with one cell of the last row moved
    beyond its tolerance: (description, artifact text) pairs."""
    doc = json.loads(text)
    columns = doc["columns"]
    row = doc["rows"][-1]
    out = []
    for col in PROBES[inv.command]:
        j = columns.index(col)
        saved = row[j]
        if col in MC_COLUMNS:
            row[j] = saved + 10.0 * K_SIGMA * row[columns.index(MC_COLUMNS[col])]
            what = f"{col} + {10 * K_SIGMA:g} standard errors"
        elif col in SPREAD or col in MC_COLUMNS.values():
            row[j] = saved * SPREAD_PROBE_FACTOR
            what = f"{col} * {SPREAD_PROBE_FACTOR:g}"
        else:
            row[j] = saved * (1.0 + 1e-6) + 1e-9
            what = f"{col} * (1 + 1e-6)"
        out.append((what, json.dumps(doc)))
        row[j] = saved
    return out
