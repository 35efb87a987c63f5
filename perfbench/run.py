"""agentauth benchmark: end-to-end and per-layer timings on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload auth_inproc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A single workload prints three JSON lines on stdout: the environment record,
the run's details (sample counts, sessions per client kind, correctness
checks, failure classes) and, last, the result
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, timed in reference seconds
(refclock.py) so that a slow spell of a shared host does not read as a
regression.  With --trace 1 they are its per-layer metrics, taken from spans
recorded around the program's public functions.  The exit code is 1 when a
correctness check fails.

--workload all runs every workload in its own process and prints a table of
the end-to-end metrics with fail_frac; with --trace 1 it also runs each
workload traced and prints the per-layer metrics and the tracing overhead
(traced minus untraced end-to-end numbers).

The program is imported from src/ next to this directory.  Without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("auth_inproc", "tcp_loopback", "dataset_gen", "probe_train")


def import_program():
    """Import agentauth from ROOT/src and nowhere else."""
    src = ROOT / "src"
    if not (src / "agentauth" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'agentauth'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import agentauth

    if Path(agentauth.__file__).resolve().parent != (src / "agentauth").resolve():
        print(f"perfbench: agentauth imported from {agentauth.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def host_sample() -> dict:
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return {"time": time.time(), "loadavg": load, "steal_ticks": ticks[7], "total_ticks": sum(ticks)}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def environment(workload: str, seed: int, seconds: float, trace: int, start: dict, end: dict) -> dict:
    import numpy

    ticks = end["total_ticks"] - start["total_ticks"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "host_start": start,
        "host_end": end,
        "steal_frac": (end["steal_ticks"] - start["steal_ticks"]) / ticks if ticks else 0.0,
    }


def wall(start: float, end: float) -> float:
    return end - start


def end_to_end(out, clock, corrected: bool = True) -> dict:
    """The end-to-end metrics in reference seconds, or in wall seconds when not
    corrected.  The gauge's own time is not the program's, so it is taken out.
    Set-ups run between sparse gauge samples, so they are scaled by the host's
    median speed over the whole set-up phase rather than interval by interval."""
    duration = clock.duration if corrected else wall
    setup_speed = clock.speed(end=out.window[0]) if corrected else 1.0
    lat_ms = [duration(a, b) / n * 1e3 for a, b, n in out.calls]
    busy = duration(*out.window) - clock.gauge_time(*out.window, duration) / out.threads
    setups = [b - a - clock.gauge_time(a, b, wall) for a, b in out.setups]
    return {
        "ops_per_s": out.completed / busy,
        "p50_ms": statistics.median(lat_ms),
        "p95_ms": statistics.quantiles(lat_ms, n=20, method="inclusive")[18],
        "setup_s": statistics.median(setups) * setup_speed,
        "peak_rss_mb": out.peak_rss_mb,
    }


def run_workload(args, spec: dict) -> int:
    import_program()
    import refclock
    import spans
    import workloads

    tracer = None
    missing = []
    if args.trace:
        tracer = spans.Tracer()
        missing = spans.install(tracer)
    state_dir = ROOT / ".perfbench"
    workdir = state_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock = refclock.RefClock()
    run = workloads.Run(root=ROOT, seed=args.seed, seconds=args.seconds, tracer=tracer,
                        clock=clock, workdir=workdir)
    start = host_sample()
    clock.sample(refclock.BURST)
    try:
        out = workloads.WORKLOADS[args.workload](run)
        clock.sample(refclock.BURST)
        clock.stop()
    finally:
        for server in list(run.servers):
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args.workload, args.seed, args.seconds, args.trace, start, host_sample())

    metrics = end_to_end(out, clock)
    kind = "end_to_end"
    if tracer is not None:
        client = tracer.to_json()
        layer = spans.per_layer(client, out.server_trace)
        layer.update({"net.server_cpu_frac": 0.0, "bench.client_cpu_frac": 0.0})
        layer.update(out.layer)
        layer["bench.host_speed"] = clock.speed()
        layer["bench.traced_ops_per_s"] = metrics["ops_per_s"]
        layer["bench.traced_p50_ms"] = metrics["p50_ms"]
        metrics, kind = layer, "per_layer"
        with open(state_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump({"env": env, "client": client, "server": out.server_trace}, f)
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    correct = all(ok for _, ok in out.checks)
    detail = {
        "samples": len(out.calls),
        "fail_frac": out.failed / out.attempted if out.attempted else 0.0,
        "setup_repeats": len(out.setups),
        "host_speed": clock.speed(),
        "wall": end_to_end(out, clock, corrected=False),
        "checks": [{"check": c, "ok": ok} for c, ok in out.checks],
        "errors": out.errors,
        "not_traced": missing + sorted((tracer.broken if tracer else {}).items()),
        **out.detail,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def run_child(args, workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    if len(lines) < 3:
        raise RuntimeError(f"{workload} (trace {trace}) exited {done.returncode} without a result")
    return lines[-2]["detail"], lines[-1]


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; a table on stdout."""
    all_correct = True
    rows, layers, overhead = [], [], []
    for workload in WORKLOADS:
        detail, result = run_child(args, workload, 0)
        all_correct &= result["correct"]
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
        rows.append((workload, "fail_frac", result["failed"] / result["attempted"], "1"))
        rows.append((workload, "samples", detail["samples"], "count"))
        for c in detail["checks"]:
            if not c["ok"]:
                print(f"{workload}: check failed: {c['check']}", file=sys.stderr)
        if args.trace:
            _, traced = run_child(args, workload, 1)
            all_correct &= traced["correct"]
            layers += [(workload, n, m["value"], m["unit"]) for n, m in traced["metrics"].items()]
            for e2e, layer in (("ops_per_s", "bench.traced_ops_per_s"), ("p50_ms", "bench.traced_p50_ms")):
                base = result["metrics"][e2e]["value"]
                with_spans = traced["metrics"][layer]["value"]
                overhead.append((workload, e2e, base, with_spans, (with_spans - base) / base))
    print(f"{'workload':14s} {'metric':26s} {'value':>14s}  unit")
    for workload, name, value, unit in rows + layers:
        print(f"{workload:14s} {name:26s} {value:14.6g}  {unit}")
    if overhead:
        print(f"\n{'workload':14s} {'tracing overhead':26s} {'untraced':>12s} {'traced':>12s} {'change':>8s}")
        for workload, name, base, traced, change in overhead:
            print(f"{workload:14s} {name:26s} {base:12.6g} {traced:12.6g} {change:+8.1%}")
    print("all correctness checks passed" if all_correct else "a correctness check failed")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # SIGTERM unwinds like an interrupt, so every server child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
