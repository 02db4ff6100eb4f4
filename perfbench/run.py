"""uppkit benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sim_grid --seed 11 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` a separate traced run
gives the per-layer ones. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
UNITS = {"cli_cold_tail_percentile": "pct", "cli_cold_samples": "count"}
PROBE_REPEATS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cli_screen", "sim_grid", "harness_mc", "fit_geo"])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measure for this long; a round that would overrun is not "
                         "started once the workload's minimum rounds are done")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def environment(seed: int) -> dict:
    from uppkit import harness

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    workers = getattr(harness, "_max_workers", lambda: 1)()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "commit": commit,
        "seed": seed,
        "harness_workers": workers,
        "thread_env": {k: os.environ[k] for k in BLAS_VARS + ("UPPKIT_THREADS",)
                       if k in os.environ},
    }


def measure(wl, state, seconds: float, tally) -> list[dict]:
    """Rounds until the next one would end after ``seconds``, but at least
    ``wl.min_rounds``."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        rounds.append(wl.run_round(state, tally))
        took = time.perf_counter() - start
        if len(rounds) >= wl.min_rounds and time.perf_counter() + took > deadline:
            return rounds


def probe_seconds(code: str, repeats: int) -> float:
    """Median wall time of a fresh interpreter running ``code``, as measured by the
    child itself when it prints a number, else from outside."""
    from workloads import child_env, run_child

    samples = []
    for _ in range(repeats):
        rc, out, took, _ = run_child([sys.executable, "-c", code], child_env())
        if rc != 0:
            raise RuntimeError(f"probe {code!r} exited with {rc}")
        samples.append(float(out) if out.strip() else took.wall)
    return statistics.median(samples)


def run_end_to_end(args, wl, tally) -> tuple[dict, dict]:
    setups = wl.setup_samples(args.seed, SETUP_REPEATS)
    state = wl.setup(args.seed)
    rounds = measure(wl, state, args.seconds, tally)
    once = wl.run_once(state, tally)
    cpu = wl.summary(rounds, once, "cpu")
    metrics = {
        "setup_s": (statistics.median(t.cpu for t in setups), "s"),
        "light_cpu_s": (cpu[wl.light], "s"),
        "heavy_cpu_s": (cpu[wl.heavy], "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    named = {
        "fail_ratio": (tally.failed / max(tally.attempted, 1), "ratio"),
        "setup_wall_s": (statistics.median(t.wall for t in setups), "s"),
        **{f"{name} (wall)": (value, UNITS.get(name, "s"))
           for name, value in wl.summary(rounds, once, "wall").items()},
        **{f"{name} (cpu)": (value, UNITS.get(name, "s")) for name, value in cpu.items()},
    }
    report = {"rounds": len(rounds), "named": named,
              "setup_samples_cpu_s": [t.cpu for t in setups],
              "gated": f"light_cpu_s = {wl.light} (cpu), heavy_cpu_s = {wl.heavy} (cpu)"}
    return metrics, report


def run_per_layer(args, wl, tally) -> tuple[dict, dict]:
    import layers
    from tracing import Tracer
    from workloads import WORK, WORKLOADS

    others = [cls() for name, cls in WORKLOADS.items() if name != args.workload]
    states = {id(w): w.setup(args.seed) for w in [wl, *others]}
    start = time.perf_counter()
    wl.run_round(states[id(wl)], tally)
    untraced = time.perf_counter() - start

    tracer = Tracer().install()
    try:
        start = time.perf_counter()
        wl.run_round(states[id(wl)], tally, tracer)
        traced = time.perf_counter() - start
        wl.run_once(states[id(wl)], tally, tracer)
        for other in others:
            other.run_round(states[id(other)], tally, tracer)
            other.run_once(states[id(other)], tally, tracer)
    finally:
        tracer.uninstall()
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)

    metrics = layers.per_layer(tracer.spans)
    metrics["cli.interpreter_s"] = (probe_seconds("pass", PROBE_REPEATS), "s")
    metrics["cli.import_s"] = (probe_seconds(
        "import time; t = time.perf_counter(); import uppkit.cli; "
        "print(time.perf_counter() - t)", PROBE_REPEATS), "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    report = {"round_untraced_s": untraced, "round_traced_s": traced,
              "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uppkit" / "__init__.py").is_file():
        print(f"error: no uppkit sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import uppkit

    if Path(uppkit.__file__).resolve().parent != SRC / "uppkit":
        print(f"error: uppkit imported from {uppkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Tally

    wl = WORKLOADS[args.workload]()
    if args.setup_probe:
        wl.setup(args.seed)
        return 0

    tally = Tally()
    env = environment(args.seed)
    metrics, report = (run_per_layer if args.trace else run_end_to_end)(args, wl, tally)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for key, value in report.items():
        if key != "named":
            print(f"# {key}: {value}")
    for name, (value, unit) in {**report.get("named", {}), **metrics}.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"# failed {tally.failed} of {tally.attempted} operations")
    for problem in tally.problems[:20]:
        print(f"# FAIL {problem}")
    absent = sorted(name for name, (value, _) in metrics.items() if math.isnan(value))
    if absent:
        print(f"error: no spans for {', '.join(absent)}; a layer boundary the metric "
              "reads is no longer called", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
