import io
import json
import math
import os
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


def test_json_format():
    code, text = run_cli(["leray-variance", "--m", "2", "--n", "10", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["config"]["command"] == "leray-variance"
    assert doc["columns"][0] == "m"
    assert len(doc["rows"]) == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"m": 2, "n": [10], "seed": 5}))
    code, text = run_cli(["leray-variance", "--config", str(cfg), "--n", "20"])
    assert code == 0
    config, _, rows = parse_csv(text)
    assert config["seed"] == 5        # from file
    assert config["n"] == [20]        # flag wins
    assert rows[0][1] == "20"


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
    ["mc-verify", "--n", "5", "--mesh-level", "3", "--samples", "4", "--workers", "0"],
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
