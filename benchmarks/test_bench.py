"""The benchmark's own test, at toy size (about a minute):

    python3 -m pytest -q benchmarks/test_bench.py

Every workload runs through run.py untraced and traced; each run must print
every metric BENCHMARK.json names, with its unit, and fail no operation.  A
wrong golden must count as a failed operation, a public callee left out of
the traced spans must fail the traced run, the frozen reference package
must not change, and a directory that holds only the benchmark
(no package source) must exit nonzero without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BASELINE_SHA256 = "938e66e02cd4be66a519711512162aa5155bc6bdc05c3b396c9a1b8dbd401b6a"


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_workloads_match_spec():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def copy_benchmark(dest: Path, with_source: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"] + (["src"] if with_source else []):
        shutil.copytree(ROOT / path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("field", ["rate_lt", "alpha"])
def test_wrong_golden_is_a_failed_operation(field, tmp_path):
    copy_benchmark(tmp_path, with_source=True)
    path = tmp_path / "benchmarks" / "inputs" / "goldens.json"
    goldens = json.loads(path.read_text())
    goldens["smoke_design_plain"]["best"][field] += 1e-6
    path.write_text(json.dumps(goldens))
    proc = bench("--workload", "design_plain", "--seed", "0", "--seconds", "1",
                 "--trace", "0", "--smoke", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert f"best {field}" in proc.stdout


@pytest.mark.parametrize("workload, span", [("sim_lt_above", "decoder.decode"),
                                            ("sim_raptor_near", "codec.lt_generate")])
def test_untraced_callee_fails_the_traced_run(workload, span, monkeypatch):
    import run
    import workloads  # noqa: F401  (puts the package on the path)
    import tracing

    monkeypatch.setattr(tracing, "WRAPS", [w for w in tracing.WRAPS if w[2] != span])
    result, lines = run.run(workload, 0, 1.0, trace=True, smoke=True)
    assert not result["correct"] and result["failed"] >= 1
    assert any("a public callee is not traced" in line for line in lines)


def test_reference_package_is_frozen():
    """baseline/ holds the package as it was when the benchmark was
    defined; op_time_rel is relative to it, so it must never change."""
    import hashlib

    import workloads

    digest = hashlib.sha256()
    for path in sorted((workloads.BASELINE / "raptorkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == BASELINE_SHA256


def test_exits_nonzero_without_package_source(tmp_path):
    copy_benchmark(tmp_path, with_source=False)
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
