"""raptorkit benchmark: runs one workload and prints its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Workloads: design_precode, design_plain, sim_lt_above, sim_raptor_near (see
NOTES.md for why each exists); "all" runs each of them untraced and traced,
each in its own process.  A workload runs with BLAS pinned to one thread;
the set-up probes time cold starts in fresh interpreters.

--trace 0 prints the end-to-end metrics of untraced operations: set-up time
(median of several cold starts), the time of a unit of work relative to the
frozen seed package in baseline/, and peak resident memory.  For the
relative time two worker processes, each holding both the checkout's
package and baseline/, are pinned to the same CPU and run units until the
same deadline, one starting on each package and then alternating.  Both
packages then share whatever the CPU's other tenants leave, which on a
shared host moves absolute times by tens of percent within minutes, and
each process's own speed (its memory layout moves design_plain by up to a
quarter) weighs on both packages alike.

--trace 1 runs operations untraced for half the time, repeats the same
operations with spans around the package's public functions, checks that
both give identical outputs and that the glue between the traced modules
stays a small share of the traced time, and prints the per-module metrics.

Every operation's output is checked (goldens for designs, codeword,
finiteness and decoder-failure checks for trials); a failed check counts in
"failed".  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  --smoke runs toy sizes for the benchmark's
own test.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 3
# setup_s is the checkout's cold start in units of the frozen package's,
# times this: the frozen package's median cold start, measured alone in 80
# runs on a 2-vCPU x86_64 shared host.  See NOTES.md.
SEED_SETUP_S = 0.970
SIDES = ("checkout", "baseline")
# A worker gets this long past the deadline to finish its last unit.
WORKER_GRACE_S = 120


def run_units(unit, deadline: float | None = None, units: int | None = None) -> list:
    """Call unit(0), unit(1), ... until `units` are done, or, after the
    first, until the next would likely end past `deadline` (a perf_counter
    time).  Returns (operation results, process CPU seconds) per unit."""
    done, walls = [], []
    while True:
        t0, c0 = perf_counter(), process_time()
        results = unit(len(done))
        done.append((results, process_time() - c0))
        walls.append(perf_counter() - t0)
        if units is not None:
            if len(done) >= units:
                break
        elif perf_counter() + statistics.median(walls) > deadline:
            break
    return done


def plain_timed(index, fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


def setup_pair_cpu_s(wl, smoke: bool) -> tuple[float, float]:
    """Process CPU seconds of one cold start (setup_probe.py) of the
    checkout's package and one of the frozen package, run at once on one
    CPU so that both see the same drift."""
    import workloads

    data = wl.config if wl.kind == "design" else workloads.INPUTS / wl.params["distribution"]
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})  # the probes inherit the pin
    try:
        procs = [subprocess.Popen([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(d),
                                   str(data), str(workloads.SIGMA)])
                 for d in (workloads.SRC, workloads.BASELINE)]
    finally:
        os.sched_setaffinity(0, affinity)
    cpus = []
    for proc in procs:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"a set-up probe exited {proc.returncode}")
        cpus.append(usage.ru_utime + usage.ru_stime)
    return cpus[0], cpus[1]


def record(wl, seconds: float, trace: bool, smoke: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS, "seed": wl.seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "workload": wl.describe(),
    }


def failure_lines(results, label: str) -> list[str]:
    return [f"FAILED {label} op {i}: {'; '.join(r.failures)}"
            for i, r in enumerate(results) if r.failures]


def info_lines(wl, ops: list, cpus: list, ref_cpus: list) -> list[str]:
    """Numbers a user reads but the benchmark does not gate: absolute times
    (CPU seconds on the shared core), the time to a design or information
    bits per second, and BER/FER."""
    lines = ["unit cpu s " + " ".join(f"{c:.4f}" for c in cpus),
             "baseline unit cpu s " + " ".join(f"{c:.4f}" for c in ref_cpus)]
    if wl.kind == "design":
        return lines + [f"design_cpu_s {statistics.median(cpus):.6f} s"]
    trials = [op["stats"] for op in ops if op["stats"]]
    bits = sum(s["info_bits"] for s in trials)
    lines.append(f"sim_info_bits_per_cpu_s {bits / sum(cpus):.3f} 1/s")
    for schedule in wl.params["schedules"]:
        mine = [s for s in trials if s["schedule"] == schedule]
        if mine:
            ber = sum(s["bit_errors"] for s in mine) / sum(s["info_bits"] for s in mine)
            fer = sum(s["frame_errors"] for s in mine) / len(mine)
            lines.append(f"{schedule} ber {ber:.6g} fer {fer:.6g} over {len(mine)} trials")
    return lines


def worker(name: str, seed: int, smoke: bool, first: int) -> int:
    """One of `paired_workers`: load both packages, say "ready", read the
    deadline from stdin, run units until it, and print what they did.
    Unit i runs on the checkout's package if (i + first) is even, else on
    the frozen one."""
    import workloads

    sides = [workloads.Workload(name, seed, smoke=smoke),
             workloads.Workload(name, seed, smoke=smoke, package=workloads.baseline_package())]
    for wl in sides:
        wl.jfunction.channel_from_sigma(workloads.SIGMA)
    with sides[0], sides[1], tempfile.TemporaryDirectory(
            prefix=".bench_tmp_", dir=workloads.ROOT) as tmp:
        print("ready", flush=True)
        deadline = float(sys.stdin.readline())
        done = run_units(lambda i: sides[(i + first) % 2].unit(i, Path(tmp), plain_timed),
                         deadline=deadline)
    print(json.dumps({
        "units": [{"side": SIDES[(i + first) % 2], "cpu_s": cpu,
                   "ops": [{"failures": r.failures, "stats": r.stats} for r in results]}
                  for i, (results, cpu) in enumerate(done)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


def paired_workers(wl, seconds: float, smoke: bool) -> list:
    """Start two `worker` processes, pin both to one CPU and give them the
    same deadline, so the scheduler interleaves them every few milliseconds
    and both see the same drift.  Worker 0 starts on the checkout's package
    and worker 1 on the frozen one, so unit i runs on both packages at about
    the same time, and each process's own speed weighs on both packages.
    Returns the two workers' reports."""
    procs = []
    try:
        for first in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
                   "--seed", str(wl.seed), "--worker", str(first)] + (["--smoke"] if smoke else [])
            procs.append(subprocess.Popen(cmd, text=True, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE))
        for proc in procs:
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("a benchmark worker did not start")
        cpu = min(os.sched_getaffinity(0))
        for proc in procs:
            os.sched_setaffinity(proc.pid, {cpu})
        deadline = perf_counter() + seconds
        for proc in procs:
            proc.stdin.write(f"{deadline!r}\n")
            proc.stdin.flush()
        reports = []
        for proc in procs:
            out, _ = proc.communicate(timeout=max(0.0, deadline + WORKER_GRACE_S - perf_counter()))
            if proc.returncode != 0:
                raise RuntimeError(f"a benchmark worker exited {proc.returncode}")
            reports.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return reports


def untraced(wl, seconds: float, smoke: bool):
    setups = [setup_pair_cpu_s(wl, smoke) for _ in range(1 if smoke else SETUP_PROBES)]
    reports = paired_workers(wl, seconds, smoke)
    units = [u for w in reports for u in w["units"]]
    # Unit i of both workers is the same work, once on each package.  An
    # even number of units weighs each worker's own speed on both packages.
    n = min(len(w["units"]) for w in reports)
    n -= n % 2 if n > 1 else 0
    paired = [u for w in reports for u in w["units"][:n]]
    cpu = {side: sum(u["cpu_s"] for u in paired if u["side"] == side) for side in SIDES}
    metrics = {
        "setup_s": (SEED_SETUP_S * statistics.median(c / b for c, b in setups), "s"),
        "op_time_rel": (cpu["checkout"] / cpu["baseline"], "ratio"),
        "peak_rss_mb": (max(w["peak_rss_mb"] for w in reports), "MB"),
    }
    ops = {side: [op for u in units if u["side"] == side for op in u["ops"]] for side in SIDES}
    lines = [f"set-up cpu s {c:.4f} baseline {b:.4f}" for c, b in setups]
    lines += info_lines(wl, ops["checkout"],
                       *([u["cpu_s"] for u in units if u["side"] == side] for side in SIDES))
    for side, label in zip(SIDES, ("untraced", "baseline")):
        lines += [f"FAILED {label} op {i}: {'; '.join(op['failures'])}"
                  for i, op in enumerate(ops[side]) if op["failures"]]
    return metrics, [op["failures"] for op in ops["checkout"]], lines


def traced(wl, workdir: Path, seconds: float):
    import tracing
    import workloads
    from raptorkit import jfunction

    jfunction.channel_from_sigma(workloads.SIGMA)  # the J table is set-up, not an operation
    plain_units = run_units(lambda i: wl.unit(i, workdir, plain_timed),
                            deadline=perf_counter() + seconds / 2)
    plain = [r for results, _ in plain_units for r in results]

    tracer = tracing.Tracer()

    def timed(index, fn):
        t0 = perf_counter()
        with tracer.op(index):
            out = fn()
        return perf_counter() - t0, out

    tracer.install()
    try:
        jfunction._table = None  # measure one cold J-table build under trace
        jfunction.channel_from_sigma(workloads.SIGMA)
        spans_before_ops = len(tracer.spans)
        tracer.counts.clear()
        results = [r for rs, _ in run_units(lambda i: wl.unit(i, workdir, timed),
                                            units=len(plain_units))
                   for r in rs]
    finally:
        tracer.uninstall()

    for p, r in zip(plain, results):
        if p.output != r.output:
            r.failures.append(f"traced output {r.output!r} != untraced {p.output!r}")
    wall = sum(r.wall_s for r in results)
    total, calls, self_time = tracer.summary()
    glue = sum(self_time.get(m, 0.0) for m in tracing.GLUE_MODULES)
    if glue > tracing.GLUE_MAX * wall:
        results[-1].failures.append(
            f"glue self time {glue:.6f} s is over {tracing.GLUE_MAX:.0%} of {wall:.6f} s "
            f"traced time: a public callee is not traced")

    table_build = sum(s[2] - s[1] for s in tracer.spans[:spans_before_ops]
                      if s[0] == "jfunction.table_build")
    metrics = layer_metrics(results, total, calls, self_time, tracer.counts, table_build)
    metrics["trace_overhead_ratio"] = (wall / sum(p.wall_s for p in plain), "ratio")
    lines = [f"spans {len(tracer.spans)}; glue ({', '.join(tracing.GLUE_MODULES)}) self time "
             f"{glue:.6f} s of {wall:.6f} s traced time"]
    lines += failure_lines(plain, "untraced") + failure_lines(results, "traced")
    return metrics, [r.failures for r in plain + results], lines


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(results, total: dict, calls: dict, self_time: dict, counts: dict,
                  table_build: float) -> dict:
    """Per-module metrics of the traced operations.  Times and counts are
    per operation (design run or trial), except the ratios and rates, the LP
    size (per LP), the one cold J-table build, and the totals
    decoder.iterations and harness.trials."""
    n = len(results)

    def t(name):  # span time per operation
        return total.get(name, 0.0) / n

    def c(name):  # span count per operation
        return calls.get(name, 0) / n

    def st(key):  # sum of an operation statistic
        return sum(r.stats.get(key, 0) for r in results)

    decodes = sum("iterations" in r.stats for r in results)
    edge_iters = st("edge_iters")
    lt_symbols = st("lt_symbols")
    solves = calls.get("simplex.solve", 0)
    m = {
        "jfunction.table_build_s": (table_build, "s"),
        "jfunction.j_calls": (c("jfunction.j"), "count"),
        "jfunction.j_s": (t("jfunction.j"), "s"),
        "jfunction.jinv_calls": (c("jfunction.jinv"), "count"),
        "jfunction.jinv_elems": (counts["jfunction.jinv_elems"] / n, "count"),
        "jfunction.jinv_s": (t("jfunction.jinv"), "s"),
        "transfer.threshold_s": (t("transfer.threshold"), "s"),
        "transfer.de_runs": (c("transfer.de_run"), "count"),
        "transfer.eval_calls": (c("transfer.eval"), "count"),
        "transfer.eval_s": (t("transfer.eval"), "s"),
        "evolution.inner_ic_s": (t("evolution.inner_ic"), "s"),
        "evolution.inner_ic_points": (counts["evolution.inner_ic_points"] / n, "count"),
        "evolution.grid_eval_s": (t("evolution.grid_eval"), "s"),
        "design.build_lp_s": (t("design.build_lp"), "s"),
        "design.verify_s": (t("design.verify"), "s"),
        "design.lp_rows": (counts["design.lp_rows"], "count"),
        "design.lp_cols": (counts["design.lp_cols"], "count"),
        "design.alphas": (st("alphas") / n, "count"),
        "design.alphas_feasible": (st("alphas_feasible") / n, "count"),
        "design.alphas_verified": (st("alphas_verified") / n, "count"),
        "simplex.solves": (c("simplex.solve"), "count"),
        "simplex.solve_s": (t("simplex.solve"), "s"),
        "simplex.solve_ms_per_alpha": (1e3 * _ratio(total.get("simplex.solve", 0.0), solves), "ms"),
        "codec.ldpc_builds": (c("codec.ldpc_build"), "count"),
        "codec.ldpc_build_s": (t("codec.ldpc_build"), "s"),
        "codec.ldpc_encode_s": (t("codec.ldpc_encode"), "s"),
        "codec.lt_generate_s": (t("codec.lt_generate"), "s"),
        "codec.lt_symbols": (lt_symbols / n, "count"),
        "codec.lt_edges": (st("lt_edges") / n, "count"),
        "codec.lt_ns_per_symbol": (1e9 * _ratio(total.get("codec.lt_generate", 0.0), lt_symbols), "ns"),
        "codec.awgn_s": (t("codec.awgn"), "s"),
        "decoder.graph_build_s": (t("decoder.graph_build"), "s"),
        "decoder.decode_s": (t("decoder.decode"), "s"),
        "decoder.iterations": (st("iterations"), "count"),
        "decoder.iters_per_frame": (_ratio(st("iterations"), decodes), "count"),
        "decoder.edge_iters": (edge_iters / n, "count"),
        "decoder.ns_per_edge_iter": (1e9 * _ratio(total.get("decoder.decode", 0.0), edge_iters), "ns"),
        "decoder.converged_ratio": (_ratio(st("converged"), decodes), "ratio"),
        "decoder.frames_ok_ratio": (_ratio(st("frame_ok"), decodes), "ratio"),
        "harness.trials": (decodes, "count"),
        "harness.trial_self_s": (_ratio(self_time.get("harness", 0.0), decodes), "s"),
        "harness.ber": (_ratio(st("bit_errors"), st("info_bits")), "ratio"),
        "harness.fer": (_ratio(st("frame_errors"), decodes), "ratio"),
        "traced_op_s": (sum(r.wall_s for r in results) / n, "s"),
    }
    for module in ("jfunction", "transfer", "evolution", "design", "simplex", "codec",
                   "decoder", "cli", "bench"):
        m[f"{module}.self_s"] = (self_time.get(module, 0.0) / n, "s")
    return m


def run(name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the lines printed before it."""
    import workloads

    wl = workloads.Workload(name, seed, smoke=smoke)
    lines = ["record " + json.dumps(record(wl, seconds, trace, smoke), sort_keys=True)]
    if trace:
        with wl, tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=workloads.ROOT) as tmp:
            metrics, failures, more = traced(wl, Path(tmp), seconds)
    else:
        metrics, failures, more = untraced(wl, seconds, smoke)
    lines += more
    failed = sum(bool(f) for f in failures)
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def run_all(seed: int, seconds: float, smoke: bool) -> dict:
    """Every workload, untraced then traced, each in its own process as a
    single-workload run; prints each one's output and returns one object
    whose metrics are named workload.metric."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
            proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
            out = proc.stdout.strip().splitlines()
            for line in out:
                print(f"# {name} trace {trace}: {line.removeprefix('# ')}", flush=True)
            result = json.loads(out[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                total["metrics"][f"{name}.{key}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's test")
    parser.add_argument("--worker", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import workloads  # noqa: F401  (imports raptorkit from this checkout)
    except ImportError as exc:
        print(f"error: cannot import the package from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.worker is not None:
        return worker(args.workload, args.seed, args.smoke, args.worker)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.smoke)
    else:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        for line in lines:
            print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
