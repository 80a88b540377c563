"""Benchmark of heaporth: three workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload symbolic-moments --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30          # every workload in turn

A run imports heaporth from ``src/`` of the checkout it sits in, times
whole passes over the workload's operations until ``--seconds`` of passes
have run, checks every pass against independent references, and prints a
report followed by one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics (means
over passes); ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("symbolic-moments", "hankel-division", "verify-deep")
SETUP_SAMPLES = 15

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def setup_seconds(name: str, seed: int) -> float:
    """Median time to import heaporth and build the inputs, in fresh interpreters.

    The benchmark's own modules are imported between the two timed steps and
    are not counted.  The first interpreter is a warm-up (it may compile
    bytecode) and is not counted either.
    """
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "t0 = time.perf_counter()\n"
        "import heaporth\n"
        "t1 = time.perf_counter()\n"
        "import workloads\n"
        "t2 = time.perf_counter()\n"
        f"workloads.WORKLOADS[{name!r}].inputs({seed})\n"
        "print(t1 - t0 + time.perf_counter() - t2)\n"
    )
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples[1:])


def self_test(wl, data: dict, inp: dict) -> tuple[list[str], list[str]]:
    """(corruptions the check wrongly accepted, corruptions that could not be made)."""
    missed, skipped = [], []
    corrupted = wl.corruptions(data)
    while True:
        try:
            what, bad = next(corrupted)
        except StopIteration:
            break
        except (KeyError, IndexError) as exc:  # the result to corrupt is missing: its op failed
            skipped.append(f"{type(exc).__name__}: {exc}")
            break
        if not wl.check(bad, inp):
            missed.append(what)
    return missed, skipped


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import Tracer, metric_units

    wl = workloads.WORKLOADS[name]
    setup = None if trace else setup_seconds(name, seed)
    inp = wl.inputs(seed)
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    op_times: dict[str, list[float]] = {}
    failures: dict[tuple[str, str], int] = {}
    layers: list[dict[str, float]] = []
    problems: list[str] = []
    attempted = 0
    missed: list[str] = []
    skipped: list[str] = []
    sizes: dict[str, int] = {}
    peak = None
    while sum(walls[False]) + sum(walls[True]) < seconds or (trace and not walls[True]):
        traced = trace and len(walls[False]) > len(walls[True])
        p = workloads.Pass()
        tracer = Tracer() if traced else None
        gc.collect()
        if tracer:
            tracer.install()
        w0, c0 = time.perf_counter(), _cpu()
        try:
            raw = wl.run(inp, p)
        finally:
            wall, cpu = time.perf_counter() - w0, _cpu() - c0
            if tracer:
                tracer.uninstall()
        walls[traced].append(wall)
        if peak is None:
            # Read before any result is checked, so that the benchmark's own
            # reference data does not set the peak.
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not traced:
            cpus.append(cpu)
            for label, t in p.times.items():
                op_times.setdefault(label, []).append(t)
        attempted += p.attempted
        for failure in p.failures:
            failures[failure] = failures.get(failure, 0) + 1
        data = wl.collect(raw)
        del raw
        problems += [x for x in wl.check(data, inp) if x not in problems]
        if not sizes:
            sizes = wl.sizes(data)
            missed, skipped = self_test(wl, data, inp)
        del data
        if tracer:
            layers.append(tracer.metrics())
            del tracer

    if trace:
        units = metric_units()
        metrics = {
            m: {"value": statistics.median(s[m] for s in layers), "unit": u}
            for m, u in units.items() if m != "trace.overhead_s"
        }
        overhead = statistics.fmean(walls[True]) - statistics.fmean(walls[False])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        # Means, not medians: on a shared host the CPU's speed drifts in
        # phases of seconds to minutes.  The median of a few passes jumps with
        # the phase that held most of them; the mean moves with their shares.
        values = {
            "wall_s": statistics.fmean(walls[False]),
            "cpu_s": statistics.fmean(cpus),
            "setup_s": setup,
            "peak_rss_mib": peak,
        }
        metrics = {m: {"value": v, "unit": E2E_UNITS[m]} for m, v in values.items()}
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(walls[False]) + len(walls[True]),
        "pass_walls": walls[False] + walls[True],
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": [{"op": op, "error": err, "count": n} for (op, err), n in failures.items()],
        "problems": problems,
        "self_test_missed": missed,
        "self_test_skipped": skipped,
        "sizes": sizes,
        "op_median_s": {label: statistics.median(ts) for label, ts in op_times.items()},
        "metrics": metrics,
    }


def print_report(r: dict) -> None:
    print(f"# {r['workload']}  seed {r['seed']}  trace {r['trace']}  passes {r['passes']}"
          f"  python {platform.python_version()}  cpus {os.cpu_count()}")
    print(f"# operations attempted {r['attempted']}, failed {r['failed']}")
    print("# pass wall times: " + " ".join(f"{t:.3f}" for t in r["pass_walls"]) + " s")
    for f in r["failures"]:
        print(f"#   failed x{f['count']}: {f['op']}: {f['error']}")
    for x in r["problems"]:
        print(f"#   WRONG: {x}")
    for x in r["self_test_missed"]:
        print(f"#   SELF-TEST: check accepted {x}")
    for x in r["self_test_skipped"]:
        print(f"#   self-test skipped: {x}")
    if r["sizes"]:
        print("# sizes: " + ", ".join(f"{k}={v}" for k, v in r["sizes"].items()))
    for label, t in r["op_median_s"].items():
        print(f"#   op {t:10.4f} s  {label}")
    for m, v in r["metrics"].items():
        print(f"# {m:48s} {v['value']:.6g} {v['unit']}")


def result_line(r: dict) -> dict:
    correct = not r["problems"] and not r["self_test_missed"]
    return {"correct": correct, "attempted": r["attempted"], "failed": r["failed"], "metrics": r["metrics"]}


def run_all(args) -> dict:
    """Every workload in its own process, so that peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for m, v in one["metrics"].items():
            total["metrics"][f"{name}.{m}"] = v
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "heaporth" / "__init__.py").is_file():
        print(f"error: no heaporth sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    sys.path.insert(0, str(SRC))
    import heaporth

    if Path(heaporth.__file__).resolve().parent != SRC / "heaporth":
        print(f"error: imported heaporth from {heaporth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(r)
    print(json.dumps(result_line(r)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
