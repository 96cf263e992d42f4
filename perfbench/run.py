"""Layered benchmark of carkov: end-to-end figures, checked outputs, layer spans.

Usage, from the repository root:

    python3 perfbench/run.py --workload low_k --seed 0 --seconds 30 --trace 0

Each run makes rounds of four phases (see phases.py) on inputs drawn
from --seed, for at least MIN_ROUNDS rounds and at least --seconds
seconds. It prints a readable report, then, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end figures; with --trace 1 the run makes
three rounds of identical work, the middle one traced, and reports the
per-layer counters of the traced round and, as the tracing overhead, its
wall time minus that of the faster untraced round. The full record,
with the environment and every generated model, goes to
perfbench/results/. The exit code is 0 when every output gate holds, 1
when one does not and 2 when carkov's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_ROUNDS = 3
SETUP_REPEATS = 3
#: a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: every end-to-end figure; the bounded ones go to the last line
FIGURES = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "exact_steps_per_s": "1/s",
    "euler_steps_per_s": "1/s",
    "suite_fast_s_p50": "s",
    "suite_fast_s_tail": "s",
    "suite_full_s": "s",
    "models_per_s": "1/s",
    "oracle_points_per_s": "1/s",
    "cli_analyze_s": "s",
    "cli_simulate_s": "s",
    "cli_spectral_s": "s",
    "cli_verify_s": "s",
}
#: the figures steady enough on a shared machine to bound (BENCHMARK.json);
#: the others are printed and recorded but not bounded
END_TO_END = ("setup_s", "peak_rss_mb", "exact_steps_per_s",
              "euler_steps_per_s", "cli_spectral_s")

PER_LAYER = {
    "kernels.ar1_recursion.calls": "count",
    "kernels.ar1_recursion.steps": "count",
    "kernels.ar1_recursion.self_s": "s",
    "kernels.ar1_recursion.steps_per_s": "1/s",
    "simulate.exact_step_operator.calls": "count",
    "simulate.exact_step_operator.self_s": "s",
    "simulate.sample_exact.calls": "count",
    "simulate.sample_exact.self_s": "s",
    "covariance.residue_expansion.calls": "count",
    "covariance.residue_expansion.self_s": "s",
    "covariance.moments.self_s": "s",
    "markov.assemble.calls": "count",
    "markov.assemble.self_s": "s",
    "markov.assemble.failed": "count",
    "covariance.eval_r.calls": "count",
    "covariance.eval_r.self_s": "s",
    "model.validate.self_s": "s",
    "covariance.quadrature_r.calls": "count",
    "covariance.quadrature_r.self_s": "s",
    "covariance.quadrature_r.failed": "count",
    "validate.check_empirical_covariance.self_s": "s",
    "validate.check_partial_correlation.self_s": "s",
    "validate.checks_run": "count",
    "validate.checks_failed": "count",
    "simulate.sample_spectral.self_s": "s",
    "simulate.write_csv.self_s": "s",
    "simulate.write_csv.bytes": "B",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("low_k", "high_k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the inputs, then print "
                             "the seconds that took")
    return parser.parse_args(argv)


def cap_blas_threads(nproc: int) -> int:
    """Set every BLAS thread variable to min(nproc, any value already set)."""
    asked = [int(v) for v in (os.environ.get(var, "") for var in BLAS_VARS)
             if v.isdigit() and int(v) > 0]
    threads = min([nproc, *asked])
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(nproc: int, blas_threads: int) -> dict:
    import carkov
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": cpu,
        "blas": blas,
        "blas_threads": blas_threads,
        "kernel_backend": getattr(carkov, "kernel_backend", None),
    }


def setup_seconds(args, first: float) -> float:
    """Median over SETUP_REPEATS set-ups: this process's and fresh ones."""
    samples = [first]
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def end_to_end(bench, setup_s: float) -> tuple[dict, dict, str]:
    """(reported figures, measured figures, note on the tail).

    A reported time is the measured one times REF_SECONDS over the run's
    best reference-loop time, and a reported rate is divided by the same
    factor: the figures are those of a machine on which the reference
    loop takes REF_SECONDS. On a machine shared with other jobs the
    measured figures of whole runs move together by up to 2x; the
    reference loop moves with them.
    """
    import phases

    times = bench.times

    def best(key):
        return min(times[key])

    def rate(prefix):
        keys = [k for k in times if k.startswith(prefix)]
        return len(keys) / sum(min(times[k]) for k in keys)

    fast = sorted(min(v) for k, v in times.items() if k.startswith("suite_fast/"))
    n = len(fast)
    tail_note = (f"suite_fast_s_tail is p{100 * (n - TAIL_BEYOND) / n:.0f} "
                 f"of {n} models")
    measured = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact_steps_per_s": phases.PATH_STEPS / best("exact"),
        "euler_steps_per_s": phases.PATH_STEPS / best("euler"),
        "suite_fast_s_p50": statistics.median(fast),
        "suite_fast_s_tail": fast[n - 1 - TAIL_BEYOND],
        "suite_full_s": best("suite_full"),
        "models_per_s": rate("model/"),
        "oracle_points_per_s": rate("oracle/"),
        "cli_analyze_s": best("cli_analyze"),
        "cli_simulate_s": best("cli_simulate"),
        "cli_spectral_s": best("cli_spectral"),
        "cli_verify_s": best("cli_verify"),
    }
    scale = phases.REF_SECONDS / bench.ref_best
    power = {"s": 1, "1/s": -1}
    reported = {name: value * scale ** power.get(FIGURES[name], 0)
                for name, value in measured.items()}
    return reported, measured, tail_note


def per_layer(stats: dict, cli_import_s: list, overhead_s: float) -> dict:
    def get(label, key):
        return float(stats.get(label, {}).get(key, 0.0))

    checks = [label for label in stats if label.startswith("validate.check_")]
    kernel = "kernels.ar1_recursion"
    special = {
        f"{kernel}.steps_per_s": (get(kernel, "steps") / get(kernel, "self_s")
                                  if get(kernel, "self_s") else 0.0),
        "validate.checks_run": sum(get(c, "reports") for c in checks),
        "validate.checks_failed": sum(get(c, "reports_failed") for c in checks),
        "cli.import_s": statistics.median(cli_import_s) if cli_import_s else 0.0,
        "trace.overhead_s": overhead_s,
    }
    values = {}
    for name in PER_LAYER:
        if name in special:
            values[name] = special[name]
        else:
            label, _, key = name.rpartition(".")
            values[name] = get(label, key)
    return values


def traced_rounds(bench) -> tuple[dict, list]:
    """Three rounds: untraced, traced, untraced. The faster untraced one is
    the reference for the overhead."""
    from tracer import Tracer

    def timed_round():
        t0 = time.perf_counter()
        bench.round(0)
        return time.perf_counter() - t0

    before = timed_round()
    tracer = Tracer()
    tracer.install()
    bench.tracer = tracer
    try:
        traced = timed_round()
    finally:
        tracer.uninstall()
        bench.tracer = None
    untraced = min(before, timed_round())
    values = per_layer(tracer.stats, bench.cli_import_s, traced - untraced)
    return values, tracer.absent


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "carkov" / "__init__.py").is_file():
        print(f"perfbench: no carkov package under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import phases

    inputs = phases.make_inputs(args.workload, args.seed, ROOT)
    first_setup = time.perf_counter() - t0
    if args.setup_probe:
        print(first_setup)
        return 0

    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    child_env = {**os.environ, "PYTHONPATH": str(SRC)}
    bench = phases.Bench(work, args.seed, inputs, child_env)
    notes, absent, values = [], [], {}
    try:
        if args.trace:
            values, absent = traced_rounds(bench)
            units, rounds = PER_LAYER, 3
            metric_names = list(PER_LAYER)
        else:
            setup_s = setup_seconds(args, first_setup)
            start, rounds = time.perf_counter(), 0
            while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
                bench.round(rounds)
                rounds += 1
            try:
                values, measured, tail_note = end_to_end(bench, setup_s)
                notes += [tail_note,
                          f"best reference loop {bench.ref_best:.6g} s; "
                          "measured figures " + json.dumps(measured)]
            except (ValueError, ZeroDivisionError, IndexError) as exc:
                bench.broken.append(f"a figure could not be measured: {exc!r}")
            units, metric_names = FIGURES, END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not bench.broken and set(values) == set(units)
    figures = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    metrics = {name: figures[name] for name in metric_names if name in figures}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "environment": environment(nproc, blas_threads),
        "models": inputs.record(),
        "metrics": figures,
        "notes": notes,
        "tracer_absent": absent,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "phase_s": dict(bench.phase_s),
        "failures": dict(bench.failures),
        "broken": bench.broken,
    }
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{rounds} rounds")
    print("environment: " + json.dumps(record["environment"]))
    print("models: " + json.dumps(record["models"]))
    for name, m in figures.items():
        bounded = "" if name in metrics else "  (not bounded)"
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{bounded}")
    share = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"  {'failed_share':44s} {share:.6g} "
          f"({bench.failed} of {bench.attempted} operations)")
    print("phase seconds, all rounds: " + ", ".join(
        f"{name} {sec:.1f}" for name, sec in bench.phase_s.items()))
    for note in notes:
        print(f"note: {note}")
    for label in absent:
        print(f"absent, not traced: {label}")
    for reason, count in sorted(bench.failures.items()):
        print(f"failed x{count}: {reason}")
    for what in bench.broken:
        print(f"BROKEN: {what}")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
