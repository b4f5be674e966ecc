"""Benchmark runner: runs one workload through ``spheresos.cli.main`` in-process.

Usage (from the repository root):

    python3 bench/run.py --workload certify_qsep --seed 1 --seconds 55 --trace 0

Workloads (see ``workloads.py`` and ``DESIGN.md``): ``certify_qsep`` and
``rate_table``.  With ``--trace 0`` the run is untraced and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed number of
cycles untraced and then the same cycles with every layer wrapped, and
reports the per-layer metrics.  The metric names, units and directions are
read from ``BENCHMARK.json``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in.
BLAS is pinned to one thread through the environment, and ``rho-table``
runs with ``--jobs 1``, so every run is single-threaded.  Scratch files go to
``.bench_out/`` in the checkout and are removed at the end; the traced run
leaves its spans there as ``trace-<workload>-seed<n>.json.gz``.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
PROBE_TIMEOUT_S = 120

sys.path.insert(0, BENCH_DIR)
import workloads as wl_mod  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments, failed set-up)."""


def _require_program():
    if not os.path.isfile(os.path.join(SRC, "spheresos", "__init__.py")):
        raise BenchError(f"no spheresos package under {SRC}")


def _import_program():
    _require_program()
    sys.path.insert(0, SRC)
    import spheresos

    if os.path.dirname(os.path.dirname(os.path.abspath(spheresos.__file__))) != SRC:
        raise BenchError(f"spheresos imported from {spheresos.__file__}, not {SRC}")
    from spheresos import cli

    return cli


def _call(cli, argv):
    """One CLI call with its diagnostics captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def setup(workload, workdir) -> float:
    """Import the program and fill its in-process caches for every
    (d, ell, n) the workload uses; returns the seconds taken."""
    calls = workload.warmup(workdir)
    t0 = perf_counter()
    cli = _import_program()
    for argv in calls:
        rc, err = _call(cli, argv)
        if rc != 0:
            raise BenchError(f"warm-up call {argv} exited {rc}: {err.strip()}")
    return perf_counter() - t0


def _probe_setup(name) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", name],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_cycles(cli, workload, seed, workdir, tag, *, cycles=None, seconds=None,
               tracer=None):
    """Run whole cycles: exactly ``cycles`` of them, or as many as end
    nearest to ``seconds`` of calls (at least the workload's minimum).
    Input generation sits outside the timed region; returns (records,
    seconds of each cycle), a record being (item, exit code, latency, stderr)."""

    def more(cycle_s):
        c, loop_s = len(cycle_s), sum(cycle_s)
        if cycles is not None:
            return c < cycles
        return c < max(1, workload.min_cycles) or loop_s + 0.5 * loop_s / c < seconds

    records, cycle_s = [], []
    while more(cycle_s):
        c = len(cycle_s)
        items = workload.cycle(seed, c, workdir, tag)
        t_cycle = perf_counter()
        for k, item in enumerate(items):
            if tracer is not None:
                tracer.item = f"{tag}{c}.{k}"
            t0 = perf_counter()
            try:
                rc, err = _call(cli, item.argv)
            except Exception:  # a crash is a failed call, not the end of the run
                rc, err = None, traceback.format_exc()
            records.append((item, rc, perf_counter() - t0, err))
        cycle_s.append(perf_counter() - t_cycle)
    return records, cycle_s


def check_records(records) -> list:
    """Exit code and artifact checks; returns one message per failed call."""
    failures = []
    for item, rc, _, err in records:
        if rc != 0:
            failures.append(f"{item.argv}: exit code {rc}: {err.strip()[-500:]}")
            continue
        try:
            problem = item.check()
        except Exception:  # a malformed artifact is a failed call
            problem = traceback.format_exc(limit=3)
        if problem:
            failures.append(f"{item.argv}: {problem}")
    return failures


def end_to_end(workload, records, cycle_s, setup_samples, failures):
    import numpy as np

    lat = [r[2] for r in records]
    tail = float(np.percentile(lat, workload.tail_pct))
    per_cycle = len(lat) / len(cycle_s)
    out = {
        "setup_s": statistics.median(setup_samples),
        # Every cycle holds the same mix, so the median cycle gives a rate
        # that one disturbed cycle does not move.
        "items_per_s": per_cycle / statistics.median(cycle_s),
        "item_p50_s": statistics.median(lat),
        "item_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "fail_frac": (len(failures) / len(records), "ratio"),
        "tail_percentile": (workload.tail_pct, "%"),
        "tail_samples_beyond": (sum(1 for x in lat if x > tail), "count"),
        "samples": (len(lat), "count"),
    }
    verify = [r[2] for r in records if r[0].kind == "verify"]
    if verify:
        extra["verify_p50_s"] = (statistics.median(verify), "s")
    gaps = {}
    for item, *_ in records:
        if "gap" in item.info:
            gaps.setdefault(item.family, []).append(item.info["gap"])
    if gaps:
        # Mean over (dims, ell) classes, so the value does not depend on how
        # many cycles fitted in the run.
        extra["gap_excess"] = (statistics.mean(statistics.mean(g) for g in gaps.values()),
                               "ratio")
    return out, extra


def per_layer(summary, tracer, records, wall_a, wall_b):
    from spans import TARGETS

    names = summary["names"]
    out = {}
    for name, *_ in TARGETS:
        if name in tracer.missing:
            continue
        a = names.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "info": []})
        out[f"{name}.calls"] = a["calls"]
        out[f"{name}.self_s"] = a["self_s"]
        out[f"{name}.total_s"] = a["total_s"]

    def info(name):
        return names.get(name, {}).get("info", [])

    def frac(flags):
        return sum(1 for f in flags if f) / len(flags) if flags else 0.0

    rows = info("poly.eval_many")
    out["poly.eval_many.rows_per_call"] = (sum(r for r, _ in rows) / len(rows)) if rows else 0.0
    out["poly.eval_many.term_rows"] = sum(t for _, t in rows)
    out["poly.sup_norm_sphere.converged_frac"] = frac(info("poly.sup_norm_sphere"))
    out["rho.rho4.skipped_directions"] = sum(info("rho.rho4"))
    out["certificate.verify_passed_frac"] = frac(info("certificate.verify_certificate"))
    out["certificate.kernel_misses"] = summary["kernel_misses"]
    out["quantum.gamma_attempts"] = summary["gamma_attempts"]
    out["quantum.gamma_pass_frac"] = (summary["gamma_passed"] / summary["gamma_attempts"]
                                      if summary["gamma_attempts"] else 0.0)
    out["cli.artifact_bytes"] = sum(
        os.path.getsize(p) for item, rc, *_ in records if rc == 0
        for p in (item.out, item.out + ".meta.json") if os.path.exists(p)
    )
    out["bench.trace_overhead_frac"] = wall_b / wall_a - 1.0
    out["bench.traced_wall_s"] = wall_b
    out["bench.self_over_wall"] = summary["self_sum_s"] / wall_b
    return {k: v for k, v in out.items()
            if not any(k.startswith(m + ".") for m in tracer.missing)}


def _cpu_steal():
    """(steal, total) jiffies of the machine, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop that uses no spheresos code.

    Printed next to each timed loop: a shared host drifts in speed, and
    this shows by how much without touching the metrics."""

    def unit():
        t0 = perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        return perf_counter() - t0

    return 1e3 * statistics.median(unit() for _ in range(50))


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, read through its own API."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rho_table_jobs": wl_mod.RATE_JOBS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "blas_threads": _blas_threads(),
    }


def _load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}")


def run(args) -> dict:
    _require_program()
    spec = _load_spec()
    workload = wl_mod.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_samples = [setup(workload, workdir)]
        setup_samples += [_probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        cli = _import_program()
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}")

        if not args.trace:
            speed0, steal0 = _host_speed_ms(), _cpu_steal()
            records, cycle_s = run_cycles(cli, workload, args.seed, workdir, "u",
                                          seconds=args.seconds)
            steal, speed1 = _steal_share(steal0, _cpu_steal()), _host_speed_ms()
            failures = check_records(records)
            metrics, extra = end_to_end(workload, records, cycle_s, setup_samples, failures)
            listed = spec["end_to_end"]
            print(f"timed loop: {len(cycle_s)} cycles, {len(records)} calls, "
                  f"{sum(cycle_s):.3f} s; cycles " + ", ".join(f"{c:.3f}" for c in cycle_s))
            print(f"machine: reference loop {speed0:.3f} ms before, {speed1:.3f} ms after"
                  + ("" if steal is None else f"; {100 * steal:.1f}% of CPU time stolen"))
            problems, missing = [], []
        else:
            from spans import Tracer

            recs_a, cycles_a = run_cycles(cli, workload, args.seed, workdir, "a",
                                          cycles=workload.trace_cycles)
            with Tracer() as tracer:
                recs_b, cycles_b = run_cycles(cli, workload, args.seed, workdir, "b",
                                              cycles=workload.trace_cycles, tracer=tracer)
            wall_a, wall_b = sum(cycles_a), sum(cycles_b)
            records = recs_a + recs_b
            failures = check_records(records)
            summary = tracer.summary()
            metrics = per_layer(summary, tracer, recs_b, wall_a, wall_b)
            extra = {"fail_frac": (len(failures) / len(records), "ratio")}
            listed = spec["per_layer"]
            fired = tracer.fired()
            problems = [f"expected span never fired: {n}" for n in workload.expected_spans
                        if n not in fired and n not in tracer.missing]
            missing = tracer.missing
            if missing:
                print("missing wrappers (not reported): " + ", ".join(missing))
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "env": env})
            print(f"traced {workload.trace_cycles} cycles: untraced {wall_a:.3f} s, "
                  f"traced {wall_b:.3f} s; spans in {os.path.relpath(trace_path, ROOT)}")

        for msg in failures + problems:
            print("FAIL " + msg, file=sys.stderr)
        reported = {}
        for m in listed:
            if m["name"] in metrics:
                reported[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
            elif not any(m["name"].startswith(w + ".") for w in missing):
                raise BenchError(f"BENCHMARK.json lists {m['name']}, which this run does not measure")
        for name, v in reported.items():
            print(f"metric {name} = {v['value']} {v['unit']}")
        for name, (value, unit) in extra.items():
            print(f"metric {name} = {value} {unit}")
        return {
            "correct": not failures and not problems,
            "attempted": len(records),
            "failed": len(failures),
            "metrics": reported,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe_setup:
            workdir = os.path.join(OUT_DIR, f"probe-{os.getpid()}")
            os.makedirs(workdir)
            try:
                print(repr(setup(wl_mod.WORKLOADS[args.workload], workdir)))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            return 0
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
