import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import raptorkit
from raptorkit.cli import main
from raptorkit.degrees import read_distribution, write_distribution, OutputDegreeDistribution
from raptorkit.transfer import load_tabulated


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


def test_design_roundtrip(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "design.ini", """
[channel]
sigma = 0.9787

[design]
alpha_grid = 21
delta = 0.04
epsilon = 0.005
support = 1-60
grid_points = 120
strict_margin = 1e-4
""")
    out = tmp_path / "dist.txt"
    assert main(["design", "--config", cfg, "--out", str(out)]) == 0
    dist = read_distribution(out)
    assert abs(sum(dist.node_weights.values()) - 1.0) < 1e-9
    report = (tmp_path / "dist.txt.report").read_text()
    assert "best alpha" in report and "alpha profile" in report
    assert "rate_lt" in capsys.readouterr().out


def test_design_precode_aware_auto_delta(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "jd.ini", """
[channel]
sigma = 0.9787

[transfer]
kind = ldpc
lambda = 3:1.0
rho = 60:1.0

[design]
alpha_grid = 7,10
delta = auto
strict_margin = 1e-4
""")
    out = tmp_path / "jd_dist.txt"
    assert main(["design", "--config", cfg, "--out", str(out)]) == 0
    dist = read_distribution(out)
    # precode-aware optimum at this grid clears the channel capacity
    assert dist.node_mean() / 7.0 > 0.5
    report = (tmp_path / "jd_dist.txt.report").read_text()
    assert "precode threshold x_p 0.96" in report


def test_table_transfer_requires_numeric_xp(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("0 0\n0.5 0.2\n1 1\n")
    cfg = write_cfg(tmp_path / "bad.ini", f"""
[channel]
sigma = 0.9787

[transfer]
kind = table
path = {table}

[design]
alpha_grid = 21
delta = 0.04
""")
    assert main(["design", "--config", cfg]) == 1
    assert "x_p" in capsys.readouterr().err


@pytest.mark.parametrize("x_p, message", [
    ("-0.5", "x_p = -0.5 lies outside [0, 1)"),
    ("1.0", "never decodes"),
], ids=["negative", "one"])
def test_design_rejects_xp_outside_unit_interval(tmp_path, capsys, x_p, message):
    cfg = write_cfg(tmp_path / "design.ini", f"""
[channel]
sigma = 0.9787

[design]
alpha_grid = 21
x_p = {x_p}
""")
    out = tmp_path / "d.txt"
    assert main(["design", "--config", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_deterministic_csv(tmp_path):
    dist = OutputDegreeDistribution.from_node_weights(
        {1: 0.08, 2: 0.45, 3: 0.2, 4: 0.12, 10: 0.15})
    dpath = tmp_path / "d.txt"
    write_distribution(dist, dpath)
    cfg = write_cfg(tmp_path / "sim.ini", f"""
[channel]
sigma = 0.9787

[simulate]
k_info = 400
distribution = {dpath}
overheads = 0.1,0.35
trials = 3
schedule = tandem
max_iters = 25
seed = 19
""")
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("overhead,")
    assert len(lines) == 3
    assert all(",tandem," in ln for ln in lines[1:])


def test_simulate_seed_flag_overrides(tmp_path):
    dist = OutputDegreeDistribution.from_node_weights({2: 0.6, 3: 0.4})
    dpath = tmp_path / "d.txt"
    write_distribution(dist, dpath)
    cfg = write_cfg(tmp_path / "sim.ini", f"""
[channel]
sigma = 1.0

[simulate]
k_info = 200
distribution = {dpath}
overheads = 0.2
trials = 2
max_iters = 10
seed = 1
""")
    out = tmp_path / "r.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "77"]) == 0
    assert out.read_text().splitlines()[1].endswith(",77")


def test_analyze_runs(tmp_path, capsys):
    dist = OutputDegreeDistribution.from_node_weights(
        {1: 0.05, 2: 0.5, 3: 0.25, 10: 0.2})
    dpath = tmp_path / "d.txt"
    write_distribution(dist, dpath)
    cfg = write_cfg(tmp_path / "an.ini", f"""
[channel]
capacity = 0.5

[analyze]
distribution = {dpath}
alpha = 12
x_p = 0
""")
    assert main(["analyze", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "alpha_min" in out and "reachable" in out


def test_transfer_table_roundtrip(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "tr.ini", """
[transfer]
kind = ldpc
lambda = 3:1.0
rho = 60:1.0
points = 81
""")
    out = tmp_path / "t.txt"
    assert main(["transfer", "--config", cfg, "--out", str(out)]) == 0
    t = load_tabulated(out)
    assert t.evaluate(1.0) == 1.0
    assert "x_p" in capsys.readouterr().out


def test_bad_config_exits_nonzero(tmp_path, capsys):
    assert main(["design", "--config", str(tmp_path / "missing.ini")]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_section_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.ini", "[channel]\n")
    assert main(["design", "--config", cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_ldpc_key_is_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "tr.ini", """
[transfer]
kind = ldpc
rho = 60:1.0
""")
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "t.txt")]) == 1
    assert "[transfer] needs lambda" in capsys.readouterr().err


def test_bad_support_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "design.ini", """
[channel]
sigma = 0.9787

[design]
alpha_grid = 21
support = 5-
""")
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "d.txt")]) == 1
    assert "[design] support = '5-'" in capsys.readouterr().err


def test_bad_float_list_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "design.ini", """
[channel]
sigma = 0.9787

[design]
alpha_grid = 21,x
""")
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "d.txt")]) == 1
    assert "[design] alpha_grid = '21,x'" in capsys.readouterr().err


def test_cold_start_imports_scipy_only_for_the_lp(tmp_path):
    dist = OutputDegreeDistribution.from_node_weights({1: 0.05, 2: 0.5, 3: 0.25, 10: 0.2})
    dpath = tmp_path / "d.txt"
    write_distribution(dist, dpath)
    analyze = write_cfg(tmp_path / "an.ini", f"""
[channel]
capacity = 0.5

[analyze]
distribution = {dpath}
alpha = 12
x_p = 0
""")
    transfer = write_cfg(tmp_path / "tr.ini", """
[transfer]
kind = ldpc
lambda = 3:1.0
rho = 6:1.0
points = 21
""")
    simulate = write_cfg(tmp_path / "sim.ini", f"""
[channel]
sigma = 0.9787

[simulate]
k_info = 200
distribution = {dpath}
overheads = 0.2
trials = 1
max_iters = 10
seed = 3
""")
    script = textwrap.dedent(f"""
        import sys
        import raptorkit
        from raptorkit import cli
        from raptorkit.simplex import LpProblem, solve_lp
        assert cli.main(["analyze", "--config", {analyze!r}]) == 0
        assert cli.main(["transfer", "--config", {transfer!r}, "--out", {str(tmp_path / "t.txt")!r}]) == 0
        assert cli.main(["simulate", "--config", {simulate!r}]) == 0
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded[:5]
        sol = solve_lp(LpProblem(c=[-1.0, -1.0], a_ub=[[1.0, 2.0], [3.0, 1.0]], b_ub=[4.0, 6.0],
                                 a_eq=[], b_eq=[]))
        assert sol.optimal and abs(sol.cost + 2.8) < 1e-9, sol
        assert "scipy.optimize" in sys.modules
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(raptorkit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
