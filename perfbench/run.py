"""catwitness benchmark: seeded workloads, oracle-checked outputs, per-layer
trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload ent-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload is a closed loop with one client in one process: the next op
starts when the previous one has returned. The run measures its set-up
(fresh interpreter to first op, several times in child processes), then
repeats passes over the op list for ``--seconds``, then checks the last
pass's outputs against the Fock-space oracle (see checks.py). With
``--trace 1`` untraced passes alternate with passes in which every public
function of the package's modules is wrapped (see tracer.py), and the
per-layer figures are reported instead of the end-to-end ones; the spans of
the first traced pass are written to ``.bench_build/spans-<workload>.jsonl``
after the timed passes.

Metrics:
  setup_s      median over the set-ups of spawn-to-op-list-ready time
  solve_s      one pass over the op list, each op at its fastest pass
  op_ms_p50    median over ops of each op's fastest latency
  op_ms_tail   the same per-op latencies at the highest percentile that
               leaves 10 ops of a pass beyond it: the 11th-largest op, so
               p100*(1-10/N) for N ops per pass (p73.7 on ent-scan, p75 on
               nc-scan, p84.1 on oracle-verify, p98.1 on protocol); a
               percentile over the pooled samples of all passes would
               rank one large op's slowest passes instead
  peak_rss_mb  peak resident memory after the timed passes
  fail_frac    failed / attempted ops (report only: it is 0 when correct)
Per-op best-of-passes is used instead of a median over passes because a
shared machine can alternate between speed phases that last seconds and
differ by up to 2x (measured on a 2-CPU shared x86-64 VM); a median then
reports the machine's phase, the per-op best the program's cost. The run's
median-pass and pooled-median figures stay in the record.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The package is imported from ``src/`` next
to this directory; without it the run exits with code 2.

The process runs BLAS single-threaded and is pinned to one CPU at a time;
successive passes and set-up probes go round the CPUs it was allowed at
start, so that a run's figures are not set by one CPU that another tenant
of a shared host slows for the whole run (on a 2-CPU shared VM this took
the worst of four runs of one seed from 1.7x the best to 1.08x). The CPUs
are recorded in the provenance block.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import workloads  # plain Python, so it may load before configure_process

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
TAIL_BEYOND = 10       # samples per pass beyond the tail percentile
CHILD_TIMEOUT_S = 170
SPANS_DIR = ROOT / ".bench_build"  # ignored by git

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("states.calls", "count"), ("states.self_s", "s"),
    ("states.chi_points", "count"), ("states.chi2_points", "count"),
    ("entanglement.calls", "count"), ("entanglement.self_s", "s"),
    ("entanglement.moments_calls", "count"), ("entanglement.moments_s", "s"),
    ("entanglement.witness_s", "s"),
    ("nonclassicality.calls", "count"), ("nonclassicality.self_s", "s"),
    ("nonclassicality.eig_calls", "count"), ("nonclassicality.eig_s", "s"),
    ("nonclassicality.scan_cells", "count"),
    ("nonclassicality.warnings", "count"),
    ("ramsey.calls", "count"), ("ramsey.self_s", "s"),
    ("ramsey.prepare_s", "s"),
    ("oracle.calls", "count"), ("oracle.self_s", "s"),
    ("oracle.dispmat_calls", "count"), ("oracle.dispmat_s", "s"),
    ("oracle.dim_sq", "count"), ("oracle.max_dim", "count"),
    ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.bytes_out", "B"),
    ("bench.self_s", "s"),
    ("check.max_dev", "1"), ("check.oracle_checked", "count"),
    ("check.unchecked", "count"),
    ("host.calib_s", "s"), ("trace.overhead", "ratio"),
)


class SetupError(RuntimeError):
    """The checkout does not hold the package sources."""


def configure_process():
    """One BLAS thread and one CPU; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        CPUS.extend(sorted(os.sched_getaffinity(0)))
        on_cpu(-1)


CPUS: list[int] = []  # the CPUs the process was allowed at start


def on_cpu(i: int):
    """Pin the process to the i-th allowed CPU, cyclically."""
    if CPUS:
        os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def import_package():
    src = ROOT / "src"
    if not (src / "catwitness" / "__init__.py").is_file():
        raise SetupError(f"no package sources under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import catwitness
    import catwitness.cli  # noqa: F401  (the CLI is not re-exported)
    import catwitness.oracle  # noqa: F401
    if Path(catwitness.__file__).resolve().parent != (src / "catwitness").resolve():
        raise SetupError(f"catwitness imported from {catwitness.__file__}, "
                         f"not from {src}")
    return catwitness


def setup_probe(workload: str, seed: int):
    """Child side of a set-up measurement: import and generate, then say so."""
    import_package()
    workloads.generate(workload, seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its op list being ready."""
    samples = []
    for i in range(SETUP_PROBES):
        on_cpu(i)  # the child inherits this CPU
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(SCRIPT), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {err.strip()}")
        samples.append(t1 - t0)
    return samples


def calibrate() -> float:
    """A fixed pure-Python loop; its time shows host drift between runs."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def run_pass(executor, ops):
    """One pass over the op list: (wall s, per-op s, outputs, errors).
    An op that raises yields output None and an error entry."""
    clock = time.perf_counter
    executor.new_pass()
    lat, outs, errors = [], [], []
    t_pass = clock()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            out = executor.run(op)
        except Exception as exc:  # one failed op must not end the run
            out = None
            errors.append((i, f"{type(exc).__name__}: {exc}"))
        lat.append(clock() - t0)
        outs.append(out)
    return clock() - t_pass, lat, outs, errors


def drop_outputs(one_pass):
    wall, lat, _, errors = one_pass
    return wall, lat, None, errors


def timed_passes(run_one, seconds: float):
    """run_one() until `seconds` have elapsed (at least once). Only the last
    pass keeps its outputs, so memory does not grow with the pass count."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        on_cpu(len(passes))
        if passes:
            passes[-1] = drop_outputs(passes[-1])
        passes.append(run_one())
    return passes


def latency_stats(passes, n_ops: int) -> dict:
    """Each op's latency at its fastest pass; their sum, their median, and
    the tail at the highest percentile that leaves TAIL_BEYOND ops of the
    pass beyond it. The median-based figures are kept for comparison."""
    best = sorted(min(col) for col in zip(*(p[1] for p in passes)))
    pooled = sorted(x for p in passes for x in p[1])
    return {"solve_s": sum(best),
            "op_ms_p50": statistics.median(best) * 1e3,
            "op_ms_tail": best[n_ops - TAIL_BEYOND - 1] * 1e3,
            "tail_percentile": 100.0 * (1 - TAIL_BEYOND / n_ops),
            "tail_ops_beyond": TAIL_BEYOND,
            "op_samples": len(pooled),
            "median_pass_s": statistics.median(p[0] for p in passes),
            "pooled_p50_ms": statistics.median(pooled) * 1e3}


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside git."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(cw, args) -> dict:
    import platform
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"catwitness": cw.__version__, "commit": git_commit(ROOT),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpus_rotated": CPUS or None,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "loop": "closed, 1 client, 1 process"}


def run_workload(args) -> dict:
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    cw = import_package()
    # after configure_process: both import numpy
    import checks
    import tracer

    ops = workloads.generate(args.workload, args.seed)
    executor = workloads.Executor(cw)
    calib = [calibrate() for _ in range(3)]
    warn_count = [0]

    def count_warning(*_a, **_k):
        warn_count[0] += 1

    tr = tracer.Tracer(cw)
    untraced, layer_passes, first_spans = [], [], []

    def traced_pass():
        tr.reset()
        warnings.showwarning = tr.on_warning
        tr.install()
        try:
            one_pass = run_pass(executor, ops)
        finally:
            tr.uninstall()
            warnings.showwarning = count_warning
        layer_passes.append({**tr.reduce(), **{
            f"{k}.warnings": v for k, v in tr.warnings.items()}})
        if not first_spans:
            first_spans.extend(tr.spans)
        return one_pass

    def untraced_then_traced():
        # alternating keeps both kinds of pass in the same host phases,
        # so trace.overhead compares like with like
        untraced.append(drop_outputs(run_pass(executor, ops)))
        return traced_pass()

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = count_warning
        if args.trace:
            traced = timed_passes(untraced_then_traced, args.seconds)
            passes = untraced
        else:
            traced = []
            passes = timed_passes(lambda: run_pass(executor, ops), args.seconds)
        rss = peak_rss_mb()
    calib += [calibrate() for _ in range(3)]

    last = traced[-1] if traced else passes[-1]
    raised = sum(len(p[3]) for p in passes + traced)
    attempted = len(ops) * (len(passes) + len(traced))
    checker = checks.Checker(cw, args.seed)
    t_check = time.perf_counter()
    report = checker.check(args.workload, list(zip(ops, last[2])))
    check_s = time.perf_counter() - t_check
    failed = raised + len(report.failed_ops)
    correct = failed == 0 and report.oracle_checked > 0

    solve = [p[0] for p in passes]
    lat = latency_stats(passes, len(ops))
    e2e = {"setup_s": statistics.median(setup) if setup else None,
           "solve_s": lat["solve_s"],
           "op_ms_p50": lat["op_ms_p50"], "op_ms_tail": lat["op_ms_tail"],
           "peak_rss_mb": rss, "fail_frac": failed / attempted}
    record = {
        "provenance": provenance(cw, args),
        "correct": correct, "attempted": attempted, "failed": failed,
        "ops_per_pass": len(ops), "passes": len(passes),
        "traced_passes": len(traced),
        "setup_samples_s": setup, "pass_samples_s": solve,
        "latency": lat, "end_to_end": e2e,
        # traced passes count their warnings per layer instead
        "warnings_per_pass": warn_count[0] // len(passes),
        "check": {"max_dev": report.max_dev,
                  "oracle_checked": report.oracle_checked,
                  "exact_checked": report.exact_checked,
                  "unchecked": report.unchecked,
                  "failed_ops": len(report.failed_ops), "seconds": check_s},
        "errors": [e for p in passes + traced for e in p[3]][:5]
        + [f"op {i}: {m}" for i, m in list(report.failed_ops.items())[:5]],
        "host_calib_s": statistics.median(calib),
    }
    if args.trace:
        # counts repeat exactly per pass; times are taken at their best
        # pass, like the end-to-end figures
        layer = {key: min(lp.get(key, 0) for lp in layer_passes)
                 for key in layer_passes[0] if key != "traced_s"}
        layer["bench.self_s"] = min(
            p[0] - lp["traced_s"] for p, lp in zip(traced, layer_passes))
        layer["check.max_dev"] = report.max_dev
        layer["check.oracle_checked"] = report.oracle_checked
        layer["check.unchecked"] = report.unchecked
        layer["cli.bytes_out"] = executor.bytes_out // (
            len(passes) + len(traced))
        layer["host.calib_s"] = statistics.median(calib)
        layer["trace.overhead"] = (latency_stats(traced, len(ops))["solve_s"]
                                   / lat["solve_s"] - 1)
        record["per_layer"] = layer
        record["spans_file"] = str(tracer.write_spans(
            first_spans, SPANS_DIR / f"spans-{args.workload}.jsonl"))
    return record


def result_line(record: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": record["per_layer"].get(k, 0), "unit": unit}
                   for k, unit in PER_LAYER}
    else:
        metrics = {k: {"value": record["end_to_end"][k], "unit": unit}
                   for k, unit in END_TO_END}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_report(record: dict):
    prov = record["provenance"]
    e2e, lat = record["end_to_end"], record["latency"]
    print(f"workload {prov['workload']} seed {prov['seed']}: "
          f"{record['passes']} timed passes x {record['ops_per_pass']} ops "
          f"({prov['loop']})")
    if e2e["setup_s"] is not None:
        print(f"  setup_s      {e2e['setup_s']:.4f} s  "
              f"(median of {len(record['setup_samples_s'])} set-ups)")
    n = record["passes"]
    print(f"  solve_s      {e2e['solve_s']:.4f} s  (each op at its best of "
          f"{n} passes; median pass {lat['median_pass_s']:.4f} s)")
    print(f"  op_ms_p50    {e2e['op_ms_p50']:.4f} ms (median over "
          f"{record['ops_per_pass']} ops; pooled over {lat['op_samples']} "
          f"samples {lat['pooled_p50_ms']:.4f} ms)")
    print(f"  op_ms_tail   {e2e['op_ms_tail']:.4f} ms "
          f"(p{lat['tail_percentile']:.2f}: {lat['tail_ops_beyond']} of "
          f"{record['ops_per_pass']} ops beyond, {n} samples each)")
    print(f"  fail_frac    {e2e['fail_frac']:.6f} ratio "
          f"({record['failed']} of {record['attempted']} ops)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.2f} MB")
    print(f"  host.calib_s {record['host_calib_s']:.4f} s; "
          f"{record['warnings_per_pass']} warnings per pass")
    chk = record["check"]
    print(f"  check: max_dev {chk['max_dev']:.3e}, oracle_checked "
          f"{chk['oracle_checked']}, exact_checked {chk['exact_checked']}, "
          f"unchecked {chk['unchecked']}, {chk['seconds']:.2f} s")
    for err in record["errors"]:
        print(f"  error: {err}")
    for key, value in record.get("per_layer", {}).items():
        print(f"  {key:30s} {value:.6g}")
    print("record " + json.dumps(record, sort_keys=True, default=str))


def run_all(args) -> int:
    """Every workload in its own process, then one table of the six
    end-to-end metrics."""
    rows, combined, ok = [], {}, True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        res = json.loads(lines[-1])
        rows.append((name, res))
        for k, m in res["metrics"].items():
            combined[f"{name}.{k}"] = m
        combined[f"{name}.fail_frac"] = {
            "value": res["failed"] / res["attempted"], "unit": "ratio"}
    names = list(rows[0][1]["metrics"]) + ["fail_frac"] if rows else []
    print("workload        " + "".join(f"{n:>22s}" for n in names))
    for name, res in rows:
        cells = [f"{combined[f'{name}.{n}']['value']:.5g} "
                 f"{combined[f'{name}.{n}']['unit']}" for n in names]
        print(f"{name:16s}" + "".join(f"{c:>22s}" for c in cells))
    print(json.dumps({"correct": ok and all(r["correct"] for _, r in rows),
                      "attempted": sum(r["attempted"] for _, r in rows),
                      "failed": sum(r["failed"] for _, r in rows),
                      "metrics": combined}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    configure_process()
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.workload == "all":
            return run_all(args)
        record = run_workload(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(record)
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
