import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest

from sphnodal import cli


def run_cli(args):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(args)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    return config, header, rows


def test_moments_table_n0_row():
    code, text = run_cli(["moments-table", "--m", "2", "--n", "0"])
    assert code == 0
    config, header, rows = parse_csv(text)
    assert config["seed"] == 0  # seed recorded even when defaulted
    assert header[:6] == ["m", "n", "N", "E", "q2_quad", "q2_closed"]
    q2 = float(rows[0][header.index("q2_quad")])
    assert q2 == pytest.approx(4 * math.pi, rel=1e-9)


def test_moments_table_sweep_ratio_column():
    code, text = run_cli(["moments-table", "--m", "2", "--n", "10,40"])
    assert code == 0
    _, header, rows = parse_csv(text)
    idx = header.index("q2_scaled_ratio")
    r10, r40 = float(rows[0][idx]), float(rows[1][idx])
    assert abs(r40 - 1) < abs(r10 - 1) + 1e-12
    assert abs(r40 - 1) < 0.02


def test_leray_variance_command():
    code, text = run_cli(["leray-variance", "--m", "2", "--n", "10,20,40,80"])
    assert code == 0
    _, header, rows = parse_csv(text)
    assert header == ["m", "n", "N", "var_quad", "var_asym", "ratio"]
    ratios = [float(r[header.index("ratio")]) for r in rows]
    # ratio column approaches 1 along the sweep
    assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)
    assert abs(ratios[-1] - 1) < 0.07


def test_cli_determinism_byte_identical():
    args = ["mc-verify", "--m", "2", "--n", "12", "--samples", "40",
            "--mesh-level", "4", "--seed", "7"]
    code1, text1 = run_cli(args)
    code2, text2 = run_cli(args)
    assert code1 == code2 == 0
    assert text1 == text2


def test_mc_verify_builds_its_mesh_once(monkeypatch):
    # one mesh serves every degree, and each row is the row of that degree
    # run alone
    from sphnodal import geometry, nodal

    calls = []
    build = geometry.icosphere

    def counting(level):
        calls.append(level)
        return build(level)

    monkeypatch.setattr(geometry, "icosphere", counting)
    monkeypatch.setattr(nodal, "icosphere", counting)
    common = ["--mesh-level", "4", "--samples", "4", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # level 4 under-resolves n = 7
        code, text = run_cli(["mc-verify", "--n", "5,7", *common])
        assert code == 0
        assert calls == [4]
        alone = [parse_csv(run_cli(["mc-verify", "--n", n, *common])[1])[2][0] for n in "57"]
    assert parse_csv(text)[2] == alone


@pytest.mark.parametrize("args", [
    ["--m", "3", "--n", "5", "--samples", "4"],
    ["--n", "0", "--samples", "4"],
    ["--n", "5", "--samples", "1"],
    ["--n", "5,7,0", "--samples", "4"],  # a refused degree after good ones
], ids=["m3", "degree0", "one-sample", "last-degree0"])
def test_refused_mc_verify_builds_no_mesh(monkeypatch, capsys, args):
    from sphnodal import geometry, nodal

    calls = []

    def counting(level):
        calls.append(level)
        raise AssertionError("the mesh is built before the run is refused")

    monkeypatch.setattr(geometry, "icosphere", counting)
    monkeypatch.setattr(nodal, "icosphere", counting)
    assert cli.main(["mc-verify", "--mesh-level", "9", "--seed", "1", *args]) == 1
    assert calls == []
    assert capsys.readouterr().err.startswith("error: ")


def test_kernel_profile_and_determinism():
    args = ["kernel-profile", "--m", "2", "--n", "8", "--theta-points", "9",
            "--mc-paths", "2000", "--seed", "3"]
    code1, text1 = run_cli(args)
    code2, text2 = run_cli(args)
    assert code1 == 0 and text1 == text2
    _, header, rows = parse_csv(text1)
    assert header == ["m", "n", "theta", "t", "u", "K", "K_se", "sigma_norm"]
    ks = [float(r[header.index("K")]) for r in rows]
    assert all(k > 0 for k in ks)


def test_covariance_check_summary():
    code, text = run_cli(["covariance-check", "--m", "2", "--n", "2,3,5",
                          "--theta-points", "25"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[-1].startswith("# summary: smallest_safe_n=")
    smallest = lines[-1].split("=")[-1]
    assert smallest == "3"
    _, header, rows = parse_csv(text)
    det_idx = header.index("det_identity_max_rel_err")
    assert all(float(r[det_idx]) < 1e-8 for r in rows)
    deg_idx = header.index("degenerate_nodes")
    by_n = {int(r[1]): int(r[deg_idx]) for r in rows}
    assert by_n[2] > 0 and by_n[3] == 0


def test_volume_variance_command():
    code, text = run_cli(["volume-variance", "--m", "2", "--n", "8",
                          "--mc-paths", "4000", "--seed", "1"])
    assert code == 0
    _, header, rows = parse_csv(text)
    row = dict(zip(header, rows[0]))
    assert float(row["second_moment"]) >= float(row["expectation"]) ** 2 - 1e-6
    assert float(row["singular_budget"]) > 0
    assert int(row["mc_paths"]) >= 4000


def test_volume_variance_sweep_prints_the_rows_of_single_degree_runs():
    # one kernel pass serves the sweep; degree 8 widens on its own, and the
    # degrees need not be sorted
    common = ["--mc-paths", "2000", "--seed", "3"]
    code, text = run_cli(["volume-variance", "--n", "16,8,15", *common])
    assert code == 0
    alone = [parse_csv(run_cli(["volume-variance", "--n", n, *common])[1])[2][0]
             for n in ("16", "8", "15")]
    assert parse_csv(text)[2] == alone
    assert [row[-1] for row in alone] == ["2000", "4000", "2000"]


def test_json_format():
    code, text = run_cli(["leray-variance", "--m", "2", "--n", "10", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["config"]["command"] == "leray-variance"
    assert doc["columns"][0] == "m"
    assert len(doc["rows"]) == 1


# field -> (command, flag, value in the config file, value the flag sets)
FLAG_OVERRIDES = {
    "m": ("leray-variance", ["--m", "3"], 2, 3),
    "n": ("leray-variance", ["--n", "20,30"], [10], [20, 30]),
    "mesh_level": ("mc-verify", ["--mesh-level", "3"], 4, 3),
    "samples": ("mc-verify", ["--samples", "7"], 5, 7),
    "seed": ("leray-variance", ["--seed", "9"], 5, 9),
    "mc_paths": ("volume-variance", ["--mc-paths", "300"], 200, 300),
    "eps0": ("kernel-profile", ["--eps0", "0.8"], 0.7, 0.8),
    "theta_points": ("covariance-check", ["--theta-points", "4"], 3, 4),
    "output_path": ("leray-variance", ["--output", "b.csv"], "a.csv", "b.csv"),
    "format": ("leray-variance", ["--format", "json"], "csv", "json"),
}


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"m": 2, "n": [10], "seed": 5}))
    code, text = run_cli(["leray-variance", "--config", str(cfg), "--n", "20"])
    assert code == 0
    config, _, rows = parse_csv(text)
    assert config["seed"] == 5        # from file
    assert config["n"] == [20]        # flag wins
    assert rows[0][1] == "20"
    # then every field, one flag each; a field without an entry in
    # FLAG_OVERRIDES fails here, so a new field gets its flag checked
    parser = cli._build_parser()
    for key in (f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "command"):
        command, flag, file_value, flag_value = FLAG_OVERRIDES[key]
        cfg.write_text(json.dumps({key: file_value}))
        from_file = cli._load_config(parser.parse_args([command, "--config", str(cfg)]))
        assert getattr(from_file, key) == file_value, key
        flagged = cli._load_config(parser.parse_args([command, "--config", str(cfg), *flag]))
        assert getattr(flagged, key) == flag_value, key


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_artifact_config_replays_byte_for_byte(tmp_path, fmt):
    code, text = run_cli(["leray-variance", "--n", "3", "--format", fmt])
    assert code == 0
    if fmt == "csv":
        echoed = text.splitlines()[0][len("# config: "):]
    else:
        echoed = json.dumps(json.loads(text)["config"])
    cfg = tmp_path / "run.json"
    cfg.write_text(echoed)
    assert run_cli(["leray-variance", "--config", str(cfg)]) == (0, text)


def test_config_of_another_schema_version_is_refused(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"schema_version": 2, "n": [3]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["leray-variance", "--config", str(cfg)])
    assert str(exc.value.code).startswith("error: config schema_version 2 is not 1")


@pytest.mark.parametrize("values, message", [
    ({"format": "xml"}, "error: config key 'format' must be"),
    ({"samples": "10"}, "error: config key 'samples' must be"),
    ({"as_dict": 1}, "error: unknown config key 'as_dict'"),
], ids=["format", "samples", "method"])
def test_config_file_values_are_type_checked(tmp_path, values, message):
    # a bad value stops the run before any output instead of being echoed
    # and ignored, or failing later with a traceback
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc-verify", "--config", str(cfg), "--n", "5", "--mesh-level", "3"])
    assert str(exc.value.code).startswith(message)


@pytest.mark.parametrize("content, message", [
    (None, "error: cannot read config file"),
    ("{bad", "error: cannot read config file"),
    ("[1, 2]", "error: config file"),
], ids=["missing", "syntax", "list"])
def test_unreadable_config_file_is_an_error(tmp_path, content, message):
    cfg = tmp_path / "run.json"
    if content is not None:
        cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["leray-variance", "--config", str(cfg), "--n", "3"])
    assert str(exc.value.code).startswith(message)


@pytest.mark.parametrize("source", ["flag", "file"])
def test_negative_seed_is_rejected(tmp_path, source):
    # refused before any work, for mc-verify before the mesh is built
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": -1}))
    args = ["--seed", "-1"] if source == "flag" else ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc-verify", "--n", "5", "--mesh-level", "3", *args])
    assert exc.value.code == "error: seed must be >= 0"


@pytest.mark.parametrize("level, message", [(-1, "error: mesh_level must be >= 0"),
                                            (10, "error: mesh_level must be <= 9")])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_mesh_level_out_of_range_is_rejected(tmp_path, source, level, message):
    # refused with the key's name before the mesh is built
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mesh_level": level}))
    args = ["--mesh-level", str(level)] if source == "flag" else ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc-verify", "--n", "3", "--samples", "5", *args])
    assert exc.value.code == message


def test_output_into_missing_directory_is_an_error(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "out.csv"
    assert cli.main(["leray-variance", "--n", "3", "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}")
    assert not out.parent.exists()


def test_output_file(tmp_path):
    out = tmp_path / "table.csv"
    code, _ = run_cli(["moments-table", "--m", "2", "--n", "1", "--output", str(out)])
    assert code == 0
    assert out.read_text().startswith("# config: ")


def test_invalid_usage_exits_nonzero():
    with pytest.raises(SystemExit):
        cli.main(["leray-variance", "--n", "abc"])
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])


def test_module_error_propagates_with_parameters(capsys):
    # degree 2 hits the exact covariance degeneracy; the message carries it
    code = cli.main(["volume-variance", "--m", "2", "--n", "2", "--mc-paths", "1000"])
    assert code == 1
    err = capsys.readouterr().err
    assert "degenerate" in err
    assert "n=[2]" in err


@pytest.mark.parametrize("level, expected", [(4, 1), (5, 0)])
def test_mc_verify_reports_under_resolution(level, expected):
    # n = 5 needs edges below pi/40 = 0.079; level 4 reaches 0.083, level 5 0.042
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(["mc-verify", "--m", "2", "--n", "5", "--mesh-level", str(level),
                           "--samples", "4", "--seed", "1"])
    assert code == 0
    assert sum("under-resolved" in str(w.message) for w in caught) == expected


@pytest.mark.parametrize("args", [
    ["mc-verify", "--n", "5", "--mesh-level", "3", "--samples", "1"],
    ["mc-verify", "--n", "5", "--mesh-level", "3", "--samples", "0"],
    ["kernel-profile", "--n", "5", "--theta-points", "3", "--mc-paths", "1"],
    ["volume-variance", "--n", "5", "--mc-paths", "0"],
    ["covariance-check", "--n", "5", "--theta-points", "0", "--format", "json"],
    ["volume-variance", "--n", "5", "--mc-paths", "1"],
    ["kernel-profile", "--n", "5", "--theta-points", "3", "--mc-paths", "5"],
    ["mc-verify", "--n", "0", "--mesh-level", "2", "--samples", "3"],
    ["leray-variance", "--m", "2", "--n", "0"],
])
def test_sizes_that_leave_no_statistic_are_rejected(args):
    # too few samples, paths or angles for a variance, a standard error or a
    # maximum: the command fails instead of printing nan, inf or Infinity
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "sphnodal.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())


def _cli_stdout(args, **env):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "sphnodal.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src, **env), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_leray_variance_does_not_depend_on_blas_threads():
    # from n = 80 the theta panels pass 1e4 nodes, where OpenBLAS splits a
    # dot product over its threads and so reorders the sum
    args = ["leray-variance", "--m", "2", "--n", "80,160"]
    assert (_cli_stdout(args, OPENBLAS_NUM_THREADS="1")
            == _cli_stdout(args, OPENBLAS_NUM_THREADS="2"))


def test_volume_variance_does_not_depend_on_blas_threads():
    # at n = 160 the nonsingular interval holds more than 1e4 quadrature
    # nodes, so a BLAS dot product of weights and kernel values would be
    # split over the threads
    args = ["volume-variance", "--m", "2", "--n", "160", "--mc-paths", "2000", "--seed", "1"]
    assert (_cli_stdout(args, OPENBLAS_NUM_THREADS="1")
            == _cli_stdout(args, OPENBLAS_NUM_THREADS="2"))


def _cli_stdout_on_cpus(cpus, args):
    # the child narrows its own affinity, if asked, before the package loads
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import os, sys\n"
            "if sys.argv[1] == 'one':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from sphnodal import cli\n"
            "sys.exit(cli.main(sys.argv[2:]))\n")
    proc = subprocess.run([sys.executable, "-c", code, cpus, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform cannot narrow a process's CPUs")
@pytest.mark.parametrize("args", [
    ["volume-variance", "--n", "10,12", "--mc-paths", "2000", "--seed", "1"],
    ["kernel-profile", "--n", "8", "--theta-points", "20", "--mc-paths", "400", "--seed", "2"],
], ids=["volume-variance", "kernel-profile"])
def test_kernel_commands_do_not_depend_on_the_cpu_count(args):
    # kernel_K splits its nodes over the usable CPUs; the two degrees of the
    # volume sweep share one pass, whose strided shares hold nodes of both
    assert _cli_stdout_on_cpus("one", args) == _cli_stdout_on_cpus("all", args)


def _data_rows(args):
    code, text = run_cli(args)
    assert code == 0
    return parse_csv(text)[1:]


def test_leray_variance_does_not_depend_on_eps0():
    # the split level belongs to the volume commands; the Leray variance is
    # one integral over [0, pi], so a level no clipping reaches is harmless
    default = _data_rows(["leray-variance", "--n", "10"])
    assert _data_rows(["leray-variance", "--n", "10", "--eps0", "0.2"]) == default
    assert (_data_rows(["leray-variance", "--n", "10", "--eps0", "0.5"])
            == _data_rows(["leray-variance", "--n", "10", "--eps0", "0.9"]))


def _readme_schemas():
    """Column list of each command under the README's "Output schemas"
    heading, its backquoted pieces joined across line breaks."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    section = readme.split(f"### Output schemas (version {cli.SCHEMA_VERSION})\n")[1]
    section = section.split("\n#")[0].replace("`\n  `", "")
    return {cmd: cols.split(",") for cmd, cols in re.findall(r"^- `([a-z-]+)`: `([^`]+)`",
                                                             section, flags=re.M)}


@pytest.mark.parametrize("args", [
    ["moments-table", "--n", "3"],
    ["leray-variance", "--n", "5"],
    ["volume-variance", "--n", "8", "--mc-paths", "2000", "--seed", "2"],
    ["mc-verify", "--n", "2", "--mesh-level", "4", "--samples", "3"],
    ["covariance-check", "--n", "3", "--theta-points", "5"],
    ["kernel-profile", "--n", "5", "--theta-points", "3", "--mc-paths", "200"],
], ids=lambda args: args[0])
def test_csv_header_matches_readme_schema(args):
    schemas = _readme_schemas()
    assert sorted(schemas) == sorted(cli._COMMANDS)
    code, text = run_cli(args)
    assert code == 0
    _, header, rows = parse_csv(text)
    assert header == schemas[args[0]]
    assert rows and all(len(row) == len(header) for row in rows)
