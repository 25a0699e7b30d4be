"""The benchmark workloads: the CLI invocations each one runs, per seed.

A workload is a fixed list of ``sphnodal`` command lines.  The benchmark
seed becomes the ``--seed`` of the Monte Carlo commands; the deterministic
commands run without one, so their artifacts are the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

# mc-coarse: criterion 4's configuration (README example), enough samples that
# the per-sample engine dominates the mesh and basis builds.
MC_COARSE_SAMPLES = 300
# mc-fine: criterion 6's n=40 configuration; level 8 is the coarsest mesh
# whose edges resolve n=40, so the mesh and basis builds dominate.
MC_FINE_SAMPLES = 10

M2_SWEEP = "10,20,40,80,160,320,640"
M3_SWEEP = "10,20,40,80,160,320"
COVARIANCE_M2_DEGREES = "2,3,5,10,20,40,80"
COVARIANCE_M3_DEGREES = "3,10,25"


@dataclass(frozen=True)
class Invocation:
    """One CLI command line of a workload."""

    command: str
    args: tuple[str, ...]   # flags after the subcommand, without --seed/--format/--output
    seeded: bool            # takes the benchmark seed as --seed
    expected_rows: int

    @property
    def key(self) -> str:
        """Stable name of the invocation, used for references and records."""
        return " ".join((self.command,) + self.args)

    def argv(self, seed: int, output: str) -> list[str]:
        seed_args = ["--seed", str(seed)] if self.seeded else []
        return [self.command, *self.args, *seed_args, "--format", "json", "--output", output]


def _count(sweep: str) -> int:
    return len(sweep.split(","))


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "mc-coarse": (
        Invocation("mc-verify", ("--m", "2", "--n", "20", "--mesh-level", "5",
                                 "--samples", str(MC_COARSE_SAMPLES)), True, 1),
    ),
    "mc-fine": (
        Invocation("mc-verify", ("--m", "2", "--n", "40", "--mesh-level", "8",
                                 "--samples", str(MC_FINE_SAMPLES)), True, 1),
    ),
    "quadrature": (
        Invocation("volume-variance", ("--m", "2", "--n", "10,20,40", "--mc-paths", "20000"),
                   True, 3),
        Invocation("kernel-profile", ("--m", "2", "--n", "15", "--theta-points", "100"),
                   True, 100),
        Invocation("moments-table", ("--m", "2", "--n", M2_SWEEP), False, _count(M2_SWEEP)),
        Invocation("moments-table", ("--m", "3", "--n", M3_SWEEP), False, _count(M3_SWEEP)),
        Invocation("leray-variance", ("--m", "2", "--n", M2_SWEEP), False, _count(M2_SWEEP)),
        Invocation("leray-variance", ("--m", "3", "--n", M3_SWEEP), False, _count(M3_SWEEP)),
        Invocation("covariance-check", ("--m", "2", "--n", COVARIANCE_M2_DEGREES,
                                        "--theta-points", "200"),
                   False, _count(COVARIANCE_M2_DEGREES)),
        Invocation("covariance-check", ("--m", "3", "--n", COVARIANCE_M3_DEGREES,
                                        "--theta-points", "200"),
                   False, _count(COVARIANCE_M3_DEGREES)),
    ),
}

COMMANDS = ("mc-verify", "volume-variance", "kernel-profile", "leray-variance",
            "moments-table", "covariance-check")

# A real CLI error path (degree 0 has no Leray second moment): exits 1.
FAILING_INVOCATION = Invocation("leray-variance", ("--m", "2", "--n", "0"), False, 1)
