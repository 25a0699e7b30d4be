"""Record the correctness gate's reference values from the current code.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``.  Deterministic commands store their rows.
Monte Carlo commands store, per reference seed (``REFERENCE_SEEDS``), the
Monte Carlo columns, and a pooled estimate over those seeds, which the gate
uses for every other seed.  Estimates are pooled as their mean with its
standard error; for mc-verify that is expressed as theory plus the mesh
discretisation bias at that (n, level).  Sample variances and standard errors
are pooled as their geometric mean.  Run it only to re-baseline the gate; the
file records the commit it was made at.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import sys
from pathlib import Path

import run
from gate import MC_COLUMNS, SPREAD
from workloads import WORKLOADS

THEORY = {"mean_Z": "theory_EZ", "mean_L": "theory_EL"}
REFERENCE_SEEDS = range(10)


def main() -> int:
    os.chdir(run.ROOT)
    pinned = run.pin_environment()
    sys.path.insert(0, str(run.ROOT / "src"))
    import sphnodal.cli

    run.TMP_DIR.mkdir(exist_ok=True)
    env = run.environment_record(pinned, seed=None)
    invocations = {inv.key: inv for workload in WORKLOADS.values() for inv in workload}
    seeds = list(REFERENCE_SEEDS)
    entries = {}
    for index, (key, inv) in enumerate(sorted(invocations.items())):
        docs = {}
        for seed in seeds if inv.seeded else [0]:
            runner = run.Runner(sphnodal.cli, (inv,), seed, gate=None)
            _, code, text = runner.invoke(index, inv)
            if code != 0:
                raise SystemExit(f"{key} seed {seed}: exit code {code}")
            docs[seed] = json.loads(text)
            print(f"{key} seed {seed}: {len(docs[seed]['rows'])} rows", file=sys.stderr)
        first = docs[seeds[0] if inv.seeded else 0]
        entry = {"columns": first["columns"], "comments": first["comments"], "rows": first["rows"]}
        if inv.seeded:
            entry.update(_monte_carlo(inv, docs))
        entries[key] = entry

    reference = {
        "provenance": {
            "made_by": "perfbench/make_reference.py",
            "date": datetime.date.today().isoformat(),
            "git_sha": env["git_sha"],
            "source_digest_of_package_and_benchmark": env["source_digest"],
            "python": env["python"], "numpy": env["numpy"], "blas": env["blas"],
            "reference_seeds": seeds,
        },
        "invocations": entries,
    }
    out = run.BENCH_DIR / "reference.json"
    out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _monte_carlo(inv, docs) -> dict:
    columns = next(iter(docs.values()))["columns"]
    mc = [c for c in columns if c in MC_COLUMNS]
    spread = [c for c in columns if c in SPREAD]
    rows_by_seed = [[dict(zip(columns, r)) for r in doc["rows"]] for doc in docs.values()]
    by_seed = {str(seed): {c: [r[c] for r in rows] for c in mc + spread}
               for seed, rows in zip(docs, rows_by_seed)}
    pooled = {}
    k = len(docs)
    nrows = len(rows_by_seed[0])
    for c in mc:
        value = [sum(rows[i][c] for rows in rows_by_seed) / k for i in range(nrows)]
        se = [math.sqrt(sum(rows[i][MC_COLUMNS[c]] ** 2 for rows in rows_by_seed)) / k
              for i in range(nrows)]
        pooled[c] = {"value": value, "se": se,
                     "provenance": f"mean of the {k} reference seeds at the recorded commit"}
        if c in THEORY:
            theory = [rows_by_seed[0][i][THEORY[c]] for i in range(nrows)]
            pooled[c]["theory"] = theory
            pooled[c]["relative_bias"] = [v / t - 1.0 for v, t in zip(value, theory)]
            pooled[c]["provenance"] = (
                f"theory {THEORY[c]} plus the mesh discretisation bias measured at the "
                f"recorded commit as the mean of {k} reference seeds of `{inv.key}`")
    for c in spread:
        value = [math.exp(sum(math.log(rows[i][c]) for rows in rows_by_seed) / k)
                 for i in range(nrows)]
        pooled[c] = {"value": value, "seeds": k,
                     "provenance": f"geometric mean of the {k} reference seeds at the recorded commit"}
    return {"by_seed": by_seed, "pooled": pooled}


if __name__ == "__main__":
    sys.exit(main())
