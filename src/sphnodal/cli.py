"""Experiment runner.

Subcommands cover the standing experiments: the moment-integral sweep, the
Leray variance comparison, the kernel-quadrature volume variance with its
singular budget, Monte Carlo verification on meshes, the covariance
self-checks, and a kernel profile for plotting.  Every artifact embeds its
full configuration (seed included) as a ``# config:`` JSON comment, and
re-running any command with the same configuration reproduces the output
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import covariance, geometry, moments, nodal, specfun

__all__ = ["RunConfig", "main", "render"]

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    command: str
    m: int = 2
    n: list[int] = field(default_factory=lambda: [10])
    mesh_level: int = 5
    samples: int = 500
    seed: int = 0
    mc_paths: int = 20000
    eps0: float = 0.9
    theta_points: int = 50
    output_path: str | None = None
    format: str = "csv"

    def as_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = SCHEMA_VERSION
        return d


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("degree list is empty")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphnodal",
        description="nodal statistics of random spherical harmonics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with defaults; explicit flags override")
        p.add_argument("--m", type=int, default=None, help="sphere dimension (>= 2)")
        p.add_argument("--n", type=_parse_n_list, default=None,
                       help="degree or comma-separated degree sweep")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--eps0", type=float, default=None,
                       help="nonsingular split level in (0, 1); read by volume-variance "
                            "and kernel-profile")
        p.add_argument("--output", dest="output_path", default=None,
                       help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("moments-table", help="moment integrals of Q_n and derivatives")
    common(p)
    p = sub.add_parser("leray-variance", help="quadrature Leray variance vs asymptotic")
    common(p)
    p = sub.add_parser("volume-variance", help="kernel-quadrature volume variance")
    common(p)
    p.add_argument("--mc-paths", dest="mc_paths", type=int, default=None)
    p = sub.add_parser("mc-verify", help="Monte Carlo nodal experiment on a mesh")
    common(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--mesh-level", dest="mesh_level", type=int, default=None)
    p = sub.add_parser("covariance-check", help="determinant identity, FD oracles, degeneracy scan")
    common(p)
    p.add_argument("--theta-points", dest="theta_points", type=int, default=None)
    p = sub.add_parser("kernel-profile", help="kernel K and spectral norm vs theta")
    common(p)
    p.add_argument("--mc-paths", dest="mc_paths", type=int, default=None)
    p.add_argument("--theta-points", dest="theta_points", type=int, default=None)
    return parser


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the config-file values of the keys that do not take a plain int; flags
# are typed by the parser
_FILE_VALUE_CHECKS = {
    "n": ("an int or a non-empty list of ints",
          lambda v: _is_int(v) or (isinstance(v, list) and v != [] and all(map(_is_int, v)))),
    "eps0": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "format": ('"csv" or "json"', lambda v: v in ("csv", "json")),
    "output_path": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError covers malformed JSON
            raise SystemExit(f"error: cannot read config file {args.config!r}: {exc}")
        if not isinstance(file_values, dict):
            raise SystemExit(f"error: config file {args.config!r} must hold a JSON object, "
                             f"got {type(file_values).__name__}")
        for key, value in file_values.items():
            if key == "command":
                continue
            if key == "schema_version":  # echoed by every artifact, so a replay carries it
                if not (_is_int(value) and value == SCHEMA_VERSION):
                    raise SystemExit(f"error: config schema_version {value!r} is not "
                                     f"{SCHEMA_VERSION}, the version this program writes")
                continue
            if key not in vars(cfg):  # fields only, not methods such as as_dict
                raise SystemExit(f"error: unknown config key {key!r}")
            expected, valid = _FILE_VALUE_CHECKS.get(key, ("an int", _is_int))
            if not valid(value):
                raise SystemExit(f"error: config key {key!r} must be {expected}, got {value!r}")
            setattr(cfg, key, value)
    for key in (f.name for f in fields(RunConfig) if f.name != "command"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if isinstance(cfg.n, int):
        cfg.n = [cfg.n]
    if cfg.seed < 0:
        raise SystemExit("error: seed must be >= 0")
    if cfg.mesh_level < 0:
        raise SystemExit("error: mesh_level must be >= 0")
    if cfg.mesh_level > 9:
        raise SystemExit("error: mesh_level must be <= 9")
    if not (0.0 < cfg.eps0 < 1.0):
        raise SystemExit("error: eps0 must lie in (0, 1)")
    if cfg.theta_points < 1:
        raise SystemExit("error: theta_points must be >= 1")
    return cfg


# ---------------------------------------------------------------------------
# Commands: each returns (columns, rows, trailing comment lines)
# ---------------------------------------------------------------------------

def _cmd_moments_table(cfg: RunConfig):
    columns = ["m", "n", "N", "E", "q2_quad", "q2_closed", "q2_rel_err",
               "q4", "dq2", "q2_scaled_ratio"]
    rows = []
    m = cfg.m
    limit = 2.0 ** (m - 1) * math.pi ** (m / 2.0) * math.gamma(m / 2.0)
    for n in cfg.n:
        model = specfun.SphereModel(m, n)
        q2, q4, dq2 = specfun.moment_integral(model, ("Q2", "Q4", "DQ2"))
        closed = specfun.second_moment_closed_form(model)
        rows.append([m, n, model.N, model.E, q2, closed,
                     abs(q2 - closed) / closed, q4, dq2,
                     n ** (m - 1) * q2 / limit])
    return columns, rows, []


def _cmd_leray_variance(cfg: RunConfig):
    columns = ["m", "n", "N", "var_quad", "var_asym", "ratio"]
    rows = []
    for n in cfg.n:
        model = specfun.SphereModel(cfg.m, n)
        var_quad = moments.leray_variance(model)
        var_asym = moments.leray_variance_asymptotic(model)
        rows.append([cfg.m, n, model.N, var_quad, var_asym, var_quad / var_asym])
    return columns, rows, []


def _cmd_volume_variance(cfg: RunConfig):
    columns = ["m", "n", "N", "E", "expectation", "second_moment", "variance",
               "theory_scale", "ratio", "nonsingular", "singular_budget",
               "mc_std_error", "mc_paths"]
    models = [specfun.SphereModel(cfg.m, n) for n in cfg.n]
    reports = moments.volume_second_moments(models, cfg.eps0, mc_paths=cfg.mc_paths,
                                            seed=cfg.seed)
    rows = [[cfg.m, rep.model.n, rep.model.N, rep.model.E, rep.expectation,
             rep.second_moment, rep.variance, rep.theory_asymptotic,
             rep.ratio, rep.nonsingular_contribution,
             rep.singular_contribution, rep.mc_std_error, rep.mc_paths]
            for rep in reports]
    return columns, rows, []


def _cmd_mc_verify(cfg: RunConfig):
    models = [specfun.SphereModel(cfg.m, n) for n in cfg.n]
    for model in models:  # every degree is checked before the mesh is built
        nodal.check_experiment(model, cfg.samples)
    mesh = geometry.icosphere(cfg.mesh_level)  # one mesh serves every degree
    reports = [nodal.monte_carlo_experiment(model, cfg.mesh_level, cfg.samples, cfg.seed,
                                            mesh=mesh).as_dict() for model in models]
    # as_dict's keys are the artifact's columns, in order
    return list(reports[0]), [list(d.values()) for d in reports], []


def _cmd_covariance_check(cfg: RunConfig):
    columns = ["m", "n", "det_identity_max_rel_err", "fd_max_rel_err",
               "degenerate_nodes", "min_omega_eig_over_scale"]
    rows = []
    smallest_safe = None
    for n in sorted(set(cfg.n)):
        model = specfun.SphereModel(cfg.m, n)
        scan = covariance.blocks_at(model, np.linspace(0.05, math.pi - 0.05, cfg.theta_points))
        eigs = covariance.omega_spectrum(scan)
        det_sigma = np.prod(np.linalg.eigvalsh(covariance.sigma_matrix(scan)), axis=-1)
        det_omega = (1.0 - scan.u**2) * np.prod(eigs, axis=(-2, -1))
        det_err = float(np.max(np.abs(det_sigma - det_omega) / np.maximum(1.0, np.abs(det_sigma))))
        degenerate = int(np.count_nonzero(covariance.degenerate(eigs, scan.scale)))
        min_eig = float(eigs.min()) / scan.scale
        fd_grid = np.linspace(0.4, math.pi - 0.4, 7)
        fd = np.stack(covariance.finite_difference_blocks(model, fd_grid), axis=-1)
        at_fd = covariance.blocks_at(model, fd_grid)
        closed = np.stack((at_fd.u, at_fd.d_long, at_fd.h_long, at_fd.h_trans), axis=-1)
        fd_err = float(np.max(np.abs(fd - closed))) / max(1.0, at_fd.scale)
        if degenerate == 0 and smallest_safe is None:
            smallest_safe = n
        rows.append([cfg.m, n, det_err, fd_err, degenerate, min_eig])
    trailing = [f"# summary: smallest_safe_n={smallest_safe if smallest_safe is not None else 'none'}"]
    return columns, rows, trailing


def _cmd_kernel_profile(cfg: RunConfig):
    columns = ["m", "n", "theta", "t", "u", "K", "K_se", "sigma_norm"]
    rows = []
    for n in cfg.n:
        model = specfun.SphereModel(cfg.m, n)
        theta_c = moments._split_theta(model, cfg.eps0) if n >= 2 else 0.05
        thetas = np.linspace(theta_c, math.pi - theta_c, cfg.theta_points)
        blocks = covariance.blocks_at(model, thetas)
        values, ses = moments.kernel_K(blocks, cfg.mc_paths, cfg.seed)
        norms = covariance.sigma_norm(covariance.omega_spectrum(blocks), blocks.scale)
        rows += [[cfg.m, n, theta, math.cos(theta), u, value, se, norm]
                 for theta, u, value, se, norm in zip(thetas.tolist(), blocks.u.tolist(),
                                                      values.tolist(), ses.tolist(), norms.tolist())]
    return columns, rows, []


_COMMANDS = {
    "moments-table": _cmd_moments_table,
    "leray-variance": _cmd_leray_variance,
    "volume-variance": _cmd_volume_variance,
    "mc-verify": _cmd_mc_verify,
    "covariance-check": _cmd_covariance_check,
    "kernel-profile": _cmd_kernel_profile,
}


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def render(cfg: RunConfig, columns: list[str], rows: list[list], trailing: list[str]) -> str:
    config_json = json.dumps(cfg.as_dict(), sort_keys=True)
    if cfg.format == "json":
        doc = {
            "config": cfg.as_dict(),
            "columns": columns,
            "rows": [[(float(v) if isinstance(v, (float, np.floating)) else int(v))
                      if isinstance(v, (int, float, np.integer, np.floating)) else v
                      for v in row] for row in rows],
            "comments": trailing,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = [f"# config: {config_json}", ",".join(columns)]
    lines += [",".join(_format_cell(v) for v in row) for row in rows]
    lines += trailing
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _load_config(args)
    try:
        columns, rows, trailing = _COMMANDS[cfg.command](cfg)
    except (ValueError, covariance.DegenerateCovarianceError, RuntimeError) as exc:
        print(f"error: {exc} (command={cfg.command}, m={cfg.m}, n={cfg.n}, "
              f"seed={cfg.seed})", file=sys.stderr)
        return 1
    text = render(cfg, columns, rows, trailing)
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.output_path}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
