"""sphnodal benchmark: run one workload of CLI commands and report its metrics.

    python3 perfbench/run.py --workload mc-coarse --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src``.  Each pass runs the workload's command lines in process
through ``sphnodal.cli.main(argv)``, writing ``--format json`` artifacts under
``.perfbench_tmp/``; passes repeat until ``--seconds`` is used up.  Every
artifact is checked by the correctness gate (``gate.py``), its sha256 is
compared across passes and with earlier runs of the same code, and the run
record goes to ``.perfbench_records/``.

``--trace 0`` reports the end-to-end metrics (median setup time over
``SETUP_REPEATS`` interpreter launches spread over the run, median pass wall
time, peak RSS).  ``--trace 1`` alternates untraced passes with traced ones,
whose spans (``spans.py``) give self times and counts per layer.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
TMP_DIR = Path(".perfbench_tmp")          # relative: artifact config echoes stay the same
RECORD_DIR = Path(".perfbench_records")
SETUP_REPEATS = 31
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import sphnodal.cli; "
              "print(repr(time.perf_counter()))")

SELF_TIMED = (
    "geometry.icosphere", "ensemble.eval_basis_many", "ensemble.eval_gradient_ambient_many",
    "nodal.extract_nodal", "nodal.leray_estimate_line", "nodal.monte_carlo_experiment",
    "moments.kernel_K", "moments.volume_second_moment", "moments.leray_variance",
    "covariance.gaussian_joint", "covariance.blocks_at_many", "covariance.s_matrix",
    "covariance.finite_difference_blocks", "specfun.gegenbauer_q",
    "specfun.gegenbauer_eval_arrays", "specfun.moment_integral", "specfun.find_c0",
    "cli.main", "cli.render",
)
COUNTED = (  # (metric, unit) summed over the commands of a traced pass
    ("geometry.mesh_vertices", "count"), ("ensemble.basis_bytes", "bytes"),
    ("ensemble.gradient_points", "count"), ("nodal.segments", "count"),
    ("moments.kernel_K.calls", "count"), ("moments.kernel_paths", "count"),
    ("moments.path_doublings", "count"), ("covariance.gaussian_joint.calls", "count"),
    ("specfun.recurrence_steps", "count"),
)


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    command_s: Counter = field(default_factory=Counter)
    output_bytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    texts: dict[str, str | None] = field(default_factory=dict)
    layers: dict | None = None
    counts: dict | None = None


def pin_environment() -> dict:
    """One package worker, OpenBLAS threads capped at the usable cores."""
    nproc = len(os.sched_getaffinity(0))
    os.environ.pop("SPHNODAL_WORKERS", None)
    cap = nproc
    try:
        cap = min(cap, int(os.environ["OPENBLAS_NUM_THREADS"]))
    except (KeyError, ValueError):
        pass
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, cap))
    return {"nproc": nproc, "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "sphnodal_workers": None}


def measure_setup(src: Path) -> float:
    """Seconds from launching a fresh interpreter until sphnodal.cli is
    imported (perf_counter is the system-wide monotonic clock)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src)], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1]) - start


def tree_digest(paths) -> str:
    h = hashlib.sha256()
    for base in paths:
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment_record(pinned: dict, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **pinned,
        "git_sha": git_sha(),
        "source_digest": tree_digest([ROOT / "src" / "sphnodal", BENCH_DIR]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "seed": seed,
        "free_memory_mb": os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
    }


class Runner:
    """Runs passes of one workload and checks every artifact."""

    def __init__(self, cli, invocations, seed, gate):
        self.cli = cli
        self.invocations = invocations
        self.seed = seed
        self.gate = gate
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict[str, str] = {}
        self.first_counts: dict | None = None
        self.wrapper_cost_s = 0.0

    def invoke(self, index, inv, tracer=None) -> tuple[float, int, str | None]:
        """Run one command line; return (seconds, exit code, artifact text)."""
        out = TMP_DIR / f"{index}.json"
        out.unlink(missing_ok=True)
        argv = inv.argv(self.seed, str(out))
        if tracer is not None:
            tracer.command = inv.key
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command fails its rows; the run goes on
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        text = out.read_text() if code == 0 and out.is_file() else None
        return elapsed, code, text

    def run_pass(self, traced: bool) -> Pass:
        from spans import Tracer

        tracer = Tracer() if traced else None
        result = Pass(traced=traced)
        outputs = []
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            for index, inv in enumerate(self.invocations):
                seconds, code, text = self.invoke(index, inv, tracer)
                result.command_s[inv.command] += seconds
                result.texts[inv.key] = text
                outputs.append((inv, code, text))
        finally:
            result.wall_s = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        for inv, code, text in outputs:
            self.check(inv, code, text, result)
        if tracer is not None:
            self.record_trace(tracer, result)
        return result

    def check(self, inv, code, text, result: Pass) -> None:
        failed, problems = self.gate.check(inv, code, text)
        if text is not None:
            result.output_bytes += len(text.encode())
            digest = hashlib.sha256(text.encode()).hexdigest()
            result.digests[inv.key] = digest
            first = self.first_digests.setdefault(inv.key, digest)
            if digest != first:
                failed = inv.expected_rows
                problems.append(f"{inv.key}: artifact differs from the first pass")
        self.attempted += inv.expected_rows
        self.failed += failed
        self.problems += problems

    def record_trace(self, tracer, result: Pass) -> None:
        self_s, root_s = tracer.self_times()
        result.layers = {"self_s": self_s, "uncovered_s": result.wall_s - root_s,
                         "spans": tracer.spans}
        result.counts = tracer.command_counts()
        if not self.wrapper_cost_s:
            self.wrapper_cost_s = tracer.wrapper_cost_s()
        if self.first_counts is None:
            self.first_counts = result.counts
        elif result.counts != self.first_counts:
            self.fail_commands(set(result.counts) | set(self.first_counts),
                               "per-layer counts differ between traced passes")

    def fail_commands(self, keys, why: str) -> None:
        for inv in self.invocations:
            if inv.key in keys:
                self.failed += inv.expected_rows
                self.problems.append(f"{inv.key}: {why}")


def compare_with_record(runner: Runner, workload: str, env: dict, counts) -> None:
    """Runs of the same code and seed must give the same artifact digests and
    per-layer counts; the first run of a code version stores them."""
    path = RECORD_DIR / f"{workload}-seed{runner.seed}.json"
    record = {"source_digest": env["source_digest"], "digests": {}, "counts": None}
    if path.is_file():
        stored = json.loads(path.read_text())
        if stored.get("source_digest") == env["source_digest"]:
            record = stored
    mismatched = {k for k, d in runner.first_digests.items()
                  if record["digests"].get(k, d) != d}
    if counts is not None and record["counts"] is not None:
        mismatched |= {k for k in set(counts) | set(record["counts"])
                       if counts.get(k) != record["counts"].get(k)}
    runner.fail_commands(mismatched, "differs from an earlier run of the same code and seed")
    record["digests"] = {**runner.first_digests, **record["digests"]}
    if record["counts"] is None:
        record["counts"] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)


def self_test(runner: Runner, first: Pass) -> tuple[int, int, list[str]]:
    """The gate must fail perturbed artifacts and a non-zero exit code.
    Returns (rows attempted, rows failed, perturbations not caught)."""
    from gate import perturbed_artifacts
    from workloads import FAILING_INVOCATION

    attempted = failed_total = 0
    missed = []
    for inv in runner.invocations:
        if first.texts[inv.key] is None:
            continue
        for what, text in perturbed_artifacts(inv, first.texts[inv.key]):
            failed, problems = runner.gate.check(inv, 0, text)
            attempted += inv.expected_rows
            failed_total += failed
            column = what.split()[0]
            if failed == 0 or not any(f": {column}=" in p for p in problems):
                missed.append(f"{inv.key}: {what}")
    with contextlib.redirect_stderr(io.StringIO()):  # the CLI's expected error message
        _, code, text = runner.invoke(len(runner.invocations), FAILING_INVOCATION)
    failed, _ = runner.gate.check(FAILING_INVOCATION, code, text)
    attempted += FAILING_INVOCATION.expected_rows
    failed_total += failed
    if code == 0 or failed != FAILING_INVOCATION.expected_rows:
        missed.append(f"{FAILING_INVOCATION.key}: exit code {code}")
    return attempted, failed_total, missed


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(setup_times, passes) -> dict:
    return {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (median([p.wall_s for p in passes]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(untraced, traced, runner: Runner) -> dict:
    from workloads import COMMANDS

    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (median([p.layers["self_s"][name] for p in traced]), "s")
    totals: Counter = Counter()
    for counts in traced[0].counts.values():
        totals.update(counts)
    for name, unit in COUNTED:
        metrics[name] = (totals[name], unit)
    metrics["cli.output_bytes"] = (traced[0].output_bytes, "bytes")
    drawn = totals["nodal.samples_drawn"]
    metrics["nodal.excluded_share"] = (
        totals["nodal.samples_excluded"] / drawn if drawn else 0.0, "ratio")
    kernel_nodes = totals["moments.kernel_K.calls_in_volume_second_moment"]
    metrics["covariance.joints_per_kernel_node"] = (
        totals["covariance.gaussian_joint.calls_in_volume_second_moment"] / kernel_nodes
        if kernel_nodes else 0.0, "count/node")
    # Spans per traced pass times the cost of one span: the difference of the
    # traced and untraced pass times is too noisy to resolve it.
    metrics["trace.overhead_s"] = (
        median([len(p.layers["spans"]) for p in traced]) * runner.wrapper_cost_s, "s")
    metrics["trace.uncovered_s"] = (median([p.layers["uncovered_s"] for p in traced]), "s")
    for command in COMMANDS:
        metrics[f"{command}_s"] = (median([p.command_s[command] for p in untraced]), "s")
    metrics["failed_share"] = (runner.failed / runner.attempted, "ratio")
    return metrics


def write_run_record(workload, args, env, runner, passes, setup_times, metrics, missed):
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_times_s": setup_times,
        "passes": [{"warmup": i == 0, "traced": p.traced, "wall_s": p.wall_s,
                    "command_s": dict(p.command_s), "digests": p.digests, "counts": p.counts}
                   for i, p in enumerate(passes)],
        "attempted": runner.attempted, "failed": runner.failed, "problems": runner.problems,
        "self_test_missed": missed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    traced = [p for p in passes if p.traced]
    if traced:  # spans of every traced pass: name, start, end, parent index, command id
        epoch = traced[0].layers["spans"][0][1]
        record["spans"] = [[[n, s - epoch, e - epoch, parent, c]
                            for n, s, e, parent, c in p.layers["spans"]] for p in traced]
    path = RECORD_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.run.json"
    path.write_text(json.dumps(record, sort_keys=True))
    return path


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sphnodal" / "cli.py").is_file():
        print(f"error: no sphnodal sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    pinned = pin_environment()
    start = time.perf_counter()
    setup_times = [measure_setup(src)]
    launch_s = time.perf_counter() - start  # one launch, interpreter exit included

    sys.path.insert(0, str(src))
    import sphnodal.cli

    if not Path(sphnodal.cli.__file__).resolve().is_relative_to(src):
        print(f"error: sphnodal imported from {sphnodal.cli.__file__}", file=sys.stderr)
        return 2
    from gate import Gate

    env = environment_record(pinned, args.seed)
    TMP_DIR.mkdir(exist_ok=True)
    RECORD_DIR.mkdir(exist_ok=True)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    runner = Runner(sphnodal.cli, WORKLOADS[args.workload], args.seed, Gate(reference, args.seed))

    # The first pass is a warm-up (lazy imports, allocator pools; about 25%
    # slower on quadrature and mc-coarse); it is checked but not timed.
    # Set-up launches are spread between passes in proportion to the time
    # used, so that their median sees the same machine load as the passes.
    # Passes and launches share --seconds, and at least one timed pass of
    # each kind runs.
    warmup = runner.run_pass(traced=False)
    passes: list[Pass] = []
    while True:
        used = time.perf_counter() - start
        due = min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * used / args.seconds))
        while len(setup_times) < due:
            setup_times.append(measure_setup(src))
        kinds = {p.traced for p in passes}
        last = (passes or [warmup])[-1].wall_s
        launches_left = (SETUP_REPEATS - len(setup_times)) * launch_s
        if (kinds >= {False, bool(args.trace)}
                and time.perf_counter() - start + last + launches_left > args.seconds):
            break
        passes.append(runner.run_pass(traced=bool(args.trace) and len(passes) % 2 == 1))
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(measure_setup(src))
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    self_attempted, self_failed, missed = self_test(runner, warmup)

    compare_with_record(runner, args.workload, env, traced[0].counts if traced else None)
    if args.trace:
        metrics = per_layer_metrics(untraced, traced, runner)
    else:
        metrics = end_to_end_metrics(setup_times, untraced)
    record_path = write_run_record(args.workload, args, env, runner, [warmup] + passes,
                                   setup_times, metrics, missed)

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced timed passes after a warm-up; python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']}, nproc {env['nproc']}")
    if not args.trace:  # per-command medians; --trace 1 reports them as metrics
        for command in sorted({c for p in untraced for c in p.command_s}):
            print(f"  {command}_s = {median([p.command_s[command] for p in untraced]):.4f} s")
    for name, (value, unit) in metrics.items():
        if name != "failed_share":
            print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_share = {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} checked rows failed)")
    for problem in runner.problems[:20]:
        print(f"  FAILED {problem}")
    print(f"  self-test of the gate: failed_share = {self_failed / self_attempted:.6g} "
          f"({self_failed} of {self_attempted} perturbed rows); "
          + ("every perturbation caught" if not missed else "NOT caught: " + "; ".join(missed)))
    if traced:
        for key, counts in traced[0].counts.items():
            interesting = {k: v for k, v in counts.items() if k.startswith(
                ("moments.kernel_K.calls", "moments.path_doublings",
                 "covariance.gaussian_joint.calls"))}
            if interesting:
                print(f"  counts [{key}] {interesting}")
    print(f"  record: {record_path}")

    correct = runner.failed == 0 and not missed
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
