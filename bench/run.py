"""qsid benchmark: seeded CLI workloads driven in-process through qsid.cli.main.

    python3 bench/run.py --workload formal_catalog --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

One fresh single-threaded process per run, one closed-loop client with no
think time: the next op starts when ``main`` returns.  Each op writes its
JSON report with ``--output`` and the report is checked against the
expected verdict (see workloads.py).  ``--trace 0`` times whole ops and
prints the end-to-end metrics; ``--trace 1`` runs a fixed op list once
untraced and once under the span tracer and prints the per-layer metrics.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, check, rounds, wrong_verdict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
MIN_SETUP_PROBES = 9
MIN_SAMPLES = 120  # so at least ten latencies lie above p90

# Speed calibration.  The CPU this benchmark was built on slows by 10-50%
# for seconds at a time when neighbouring machines are busy, for CPU time as
# much as wall time, which swamps any program change worth measuring.
# Around every op the benchmark times a fixed kernel (a sparse polynomial
# product over Fractions and a partition listing: the interpreter work of
# the series and partition layers, in code the program cannot change, with
# the collector off so the program's heap does not slow it).  Each round's
# times are scaled by CAL_REF_MS over the round's median kernel time and
# read as ms at the reference speed.
CAL_REF_MS = 2.0
_CAL_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(6)}


def _cal_partitions(prev, weight, stack, out):
    out.append(tuple(stack))
    for part in range(min(prev, 14 - weight), 0, -1):
        stack.append(part)
        _cal_partitions(part, weight + part, stack, out)
        stack.pop()


def speed_sample():
    """Milliseconds for one pass of the calibration kernel."""
    gc.disable()
    try:
        started = time.perf_counter()
        product = {}
        for (a, b), c in _CAL_TERMS.items():
            for (d, e), f in _CAL_TERMS.items():
                if a + d <= 6 and b + e <= 6:
                    product[a + d, b + e] = product.get((a + d, b + e), 0) + c * f
        listed = []
        _cal_partitions(14, 0, [], listed)
        listed.sort(reverse=True)
        return (time.perf_counter() - started) * 1e3
    finally:
        gc.enable()


def speed_scale(samples):
    """Factor that turns times taken during ``samples`` into reference-speed times."""
    return CAL_REF_MS / statistics.median(samples)


def load_program():
    """Import qsid.cli from this checkout's src/, or exit with an error."""
    if not (SRC / "qsid" / "cli.py").is_file():
        sys.exit(f"error: no qsid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsid.cli

    if Path(qsid.cli.__file__).resolve().parent != SRC / "qsid":
        sys.exit(f"error: imported qsid from {qsid.cli.__file__}, not from {SRC}")
    return qsid.cli


def run_op(main, op, out_path):
    """(exit code, ms inside main, error) for one op; never raises."""
    if out_path.exists():
        out_path.unlink()
    argv = op.argv + ["--format", "json", "--output", str(out_path)]
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the loop must go on; the op counts as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - started) * 1e3
    return code, elapsed, error


def execute(main, op, out_path, failures):
    """Run and check one op; returns its latency in ms."""
    code, ms, error = run_op(main, op, out_path)
    if error is None:
        error = check(op, code, str(out_path))
    if error is not None:
        failures.append(f"{' '.join(op.argv)}: {error}")
    return ms


def negative_control(main, workload, out_path):
    """Run the control op and show the checker rejects a wrong verdict."""
    op = workload.control
    code, _, error = run_op(main, op, out_path)
    right = error or check(op, code, str(out_path))
    wrong = error or check(wrong_verdict(op), code, str(out_path))
    ok = right is None and wrong is not None
    print(f"negative control ({' '.join(op.argv)}): true expectation "
          f"{'passes' if right is None else 'FAILS: ' + right}; inverted verdict "
          f"{'counted as failed: ' + wrong if wrong else 'NOT caught'}")
    return ok


def probe_setup(args):
    """Seconds from spawning a fresh interpreter until it reports ready
    (qsid.cli imported, first round's inputs made).

    The child says "ready" on stdout and the parent times that line, not
    the child's exit: waiting on an exit with a timeout polls in steps of
    up to 50 ms.  Not calibrated: spawning and importing respond to a busy
    machine differently from the kernel, and scaling made this noisier.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe-setup"]
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
    if line != "ready\n" or child.returncode != 0:
        raise RuntimeError(f"setup probe failed: {line!r}, exit {child.returncode}")
    return elapsed


def poch_cache():
    """The rational layer's memo cache, while the program still has one."""
    rational = sys.modules.get("qsid.rational")
    cached = getattr(rational, "cached_poch_series", None)
    return cached if hasattr(cached, "cache_info") else None


def run_round(main, ops, out_path, failures):
    """Raw latencies (ms) of one round's ops and the round's speed scale."""
    speeds, latencies = [], []
    for op in ops:
        speeds.append(speed_sample())
        latencies.append(execute(main, op, out_path, failures))
        speeds.append(speed_sample())
    return latencies, speed_scale(speeds)


def measure(cli, args, rounds, out_path):
    """Closed loop over whole rounds until ``--seconds`` pass (and enough samples).

    Returns raw and calibrated (ms at reference speed) latencies, failures
    and set-up times.  One set-up probe follows each round, so the probes
    sample the machine over the whole run, as the ops do.
    """
    raw, scaled, failures, setups = [], [], [], []
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds or len(raw) < MIN_SAMPLES:
        latencies, scale = run_round(cli.main, next(rounds), out_path, failures)
        raw += latencies
        scaled += [ms * scale for ms in latencies]
        setups.append(probe_setup(args))
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(probe_setup(args))
    return raw, scaled, failures, setups


def summary(latencies, ok):
    """(ops per second inside main, p50 ms, p90 ms)."""
    return (ok / (sum(latencies) / 1e3), statistics.median(latencies),
            statistics.quantiles(latencies, n=10)[8])


def end_to_end(cli, args, workload, rounds, out_path):
    raw, latencies, failures, setups = measure(cli, args, rounds, out_path)
    n, ok = len(latencies), len(latencies) - len(failures)
    rate, p50, p90 = summary(latencies, ok)
    raw_rate, raw_p50, raw_p90 = summary(raw, ok)
    print(f"{args.workload}: {n} ops, {ok} ok, {sum(x > p90 for x in latencies)} above p90; "
          f"uncalibrated ops/s {raw_rate:.4g}, p50 {raw_p50:.4g} ms, p90 {raw_p90:.4g} ms")
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "op_ms.p50": (p50, "ms"),
        "op_ms.p90": (p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ops_ratio": (ok / n, "ratio"),
    }
    return n, failures, metrics


def per_layer(cli, args, workload, rounds, out_path):
    """Fixed op list: once untraced, once traced; per-layer metrics."""
    count = max(1, round(args.seconds * workload.trace_rounds_per_s))
    ops = [op for _ in range(count) for op in next(rounds)]
    cache = poch_cache()
    failures = []

    def phase(main):
        if cache is not None:
            cache.cache_clear()
        total_ms, report_bytes, speeds = 0.0, 0, []
        for i, op in enumerate(ops):
            tracer.current_op[0] = i
            speeds.append(speed_sample())
            total_ms += execute(main, op, out_path, failures)
            if out_path.exists():
                report_bytes += out_path.stat().st_size
        return len(ops) / (total_ms * speed_scale(speeds)), report_bytes

    tracer = Tracer()
    plain_rate, _ = phase(cli.main)
    tracer.install()
    try:
        traced_rate, report_bytes = phase(tracer.wrap(cli.main, "cli.main"))
    finally:
        tracer.uninstall()
    # cache_clear() also zeroes the statistics, so these are the traced phase's.
    hits, misses = cache.cache_info()[:2] if cache is not None else (0, 0)
    tracer.write(WORK / f"spans-{args.workload}.bin")
    print(f"{args.workload}: {len(ops)} ops traced, {len(tracer.start)} spans")
    metrics = tracer.metrics((hits, misses), report_bytes, traced_rate / plain_rate)
    return 2 * len(ops), failures, metrics


def run_all(args):
    """Every workload in its own process; prints each result line."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else done.stderr.strip()}")
        status = status or done.returncode
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    os.environ.pop("QSID_ENUM_LIMIT", None)  # the audit guard must read its default
    cli = load_program()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seeded = rounds(workload, args.seed)
    if args.probe_setup:
        next(seeded)
        print("ready", flush=True)
        return 0

    WORK.mkdir(exist_ok=True)
    out_path = WORK / f"report-{args.workload}-{os.getpid()}.json"
    try:
        control_ok = negative_control(cli.main, workload, out_path)
        measured = per_layer if args.trace else end_to_end
        attempted, failures, metrics = measured(cli, args, workload, seeded, out_path)
    finally:
        if out_path.exists():
            out_path.unlink()
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": control_ok and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
