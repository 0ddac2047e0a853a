"""webworlds benchmark: one workload per process, closed loop, one thread.

Run from the root of a webworlds checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The library is imported from the checkout's ``src/``.  Inputs come from
``--seed`` only.  A run repeats whole passes over its inputs until
``--seconds`` would be exceeded (at least one pass) and reports medians
over passes.  Library caches are cleared before every pass, so each pass
starts as cold as a fresh CLI process.  Times are in seconds at reference
speed: measured seconds over the host's slowdown, which ``speed.py``
measures while each pass runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of one traced pass with
``--trace 1``.  The line before it holds the run's details: pass times,
input-size counts, the tail percentile used, check failures and the
machine.  ``--workload all`` runs every workload in its own process and
prints a table.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Meter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None
SETUP_REPEATS = 8  # extra set-ups in child processes; the median of 9 is reported
SPANS_DIR = Path(__file__).resolve().parent / "out"


def load_library() -> None:
    """Import webworlds from this checkout's src/, never from elsewhere."""
    if not (SRC / "webworlds" / "__init__.py").is_file():
        sys.exit(f"error: no webworlds package under {SRC}; run from a webworlds checkout")
    sys.path.insert(0, str(SRC))
    import webworlds

    if SRC not in Path(webworlds.__file__).resolve().parents:
        sys.exit(f"error: imported webworlds from {webworlds.__file__}, not {SRC}")


def clear_caches() -> None:
    from tracer import library_modules

    for module in library_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def machine() -> dict:
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        cpu = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu or platform.processor() or "unknown",
        "loadavg_start": os.getloadavg(),
    }


def source_identity() -> dict:
    """Git commit where the checkout is a repository, and always a digest of src/."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            run = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = run.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def setup_samples(args, first: tuple[float, float]) -> list[tuple[float, float]]:
    """(seconds, slowdown) of this run's set-up and of SETUP_REPEATS fresh ones."""
    samples = [first]
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(tuple(json.loads(child.stdout.strip().splitlines()[-1])["setup"]))
    return samples


def timed_pass(bench, checks, meter: Meter):
    """One pass, caches cleared first, with the host-speed kernel on its timer."""
    clear_caches()
    with meter.running():
        return bench.run_pass(checks, meter)


def run_passes(bench, checks, seconds: float):
    """Closed loop of whole passes until the next one would overrun `seconds`."""
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(timed_pass(bench, checks, Meter()))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return passes


def end_to_end(args, bench, checks, setup_first: tuple[float, float], details: dict) -> dict:
    from workloads import item_latencies_ms, tail_percentile

    passes = run_passes(bench, checks, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = setup_samples(args, setup_first)
    refs = [p.reference() for p in passes]
    latencies = [item_latencies_ms([t + m for t, m in r]) for r in refs]
    median = statistics.median
    details.update(
        passes=len(passes),
        pass_wall_s=[p.wall_s for p in passes],
        pass_slowdown=[p.meter.slowdown for p in passes],
        items_per_pass=len(refs[0]),
        tail_percentile=tail_percentile(len(refs[0])) or 100,
        setup_samples=setups,  # (seconds, slowdown)
    )
    values = {
        "wall_s": median(sum(t + m for t, m in r) for r in refs),
        "setup_s": median(s / f for s, f in setups),
        "peak_rss_mb": rss_mb,
        "item_p50_ms": median(p50 for p50, _ in latencies),
        "item_tail_ms": median(tail for _, tail in latencies),
        "trace_s": median(sum(t for t, _ in r) for r in refs),
        "matrix_s": median(sum(m for _, m in r) for r in refs),
    }
    details["counts"] = dict(passes[0].counts)
    return values


def per_layer(args, bench, checks, details: dict) -> dict:
    from tracer import HOOK_SPAN, LAYER_SPANS, Tracer
    from workloads import COUNT_NAMES

    plain = timed_pass(bench, checks, Meter())
    meter = Meter()
    tracer = Tracer(meter.clock)
    tracer.install()
    try:
        traced = timed_pass(bench, checks, meter)
    finally:
        tracer.uninstall()
    slow = traced.meter.slowdown
    self_s = tracer.self_times()
    values = {f"{span}.self_s": self_s.get(span, 0.0) / slow for span in LAYER_SPANS}
    for name in COUNT_NAMES:
        values[name] = traced.counts.get(name, 0)
    returned = tracer.counts["matrices.returned_entries"]
    values["matrices.nonzero_frac"] = tracer.counts["matrices.nonzero"] / returned if returned else 0.0
    values["posets.linear_extensions"] = tracer.counts["posets.linear_extensions"]
    values["trace.overhead_s"] = traced.wall_s / slow - plain.wall_s / plain.meter.slowdown
    layer_total = sum(t for span, t in self_s.items() if span != HOOK_SPAN)
    values["trace.self_share"] = layer_total / traced.wall_s
    details.update(
        untraced_wall_s=plain.wall_s,
        untraced_slowdown=plain.meter.slowdown,
        traced_wall_s=traced.wall_s,
        traced_slowdown=slow,
        hooks_s=self_s.get(HOOK_SPAN, 0.0),
        spans=len(tracer.spans),
    )
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(tracer.spans))
    details["spans_file"] = str(path.relative_to(ROOT))
    return values


def run_one(args) -> int:
    load_library()
    import workloads

    checks = workloads.Checks()
    bench = workloads.WORKLOADS[args.workload](args.seed, checks)
    setup_first = time.perf_counter() - _START
    meter = Meter()
    meter.sample(setup_first)
    setup_first = (setup_first, meter.slowdown)
    if args.setup_only:
        print(json.dumps({"setup": setup_first}))
        return 0

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    details["machine"] = machine()
    details.update(source_identity())
    if args.trace:
        values = per_layer(args, bench, checks, details)
        specs = BENCH["per_layer"]
    else:
        values = end_to_end(args, bench, checks, setup_first, details)
        specs = BENCH["end_to_end"]
    details["machine"]["loadavg_end"] = os.getloadavg()
    details["failed_frac"] = checks.failed / checks.attempted
    details["first_failures"] = checks.first_failures
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in BENCH["workloads"]):
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} checks={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:>16.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    if BENCH is None:
        sys.exit(f"error: {ROOT / 'BENCHMARK.json'} not found")
    names = [w["name"] for w in BENCH["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*names, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
