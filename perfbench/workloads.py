"""The four benchmark workloads.

Each workload is a closed loop with one caller: it issues the next operation
only after the previous one has finished. ``setup`` builds the inputs from
the seed and runs a small warm-up slice. ``run_round`` makes one pass over the
operations that repeat while the run measures, and ``run_once`` runs those
measured once per run, after the rounds. Both time each operation, check
every output and return the timings grouped by part. ``summary`` reduces the
timings to the workload's named times; the two named by ``light`` and
``heavy`` are gated.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
from tracing import Tracer, read_spans

from uppkit import fitting, harness, simulation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "uppkit" / "fixtures"
WORK = ROOT / ".bench_out"

CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Timing:
    """Wall-clock and CPU seconds. CPU time is the user plus system time of
    every thread of the process that did the work; unlike wall time it leaves
    out the time the host takes the processor away from the machine."""

    wall: float
    cpu: float

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.wall + other.wall, self.cpu + other.cpu)

    def __sub__(self, other: "Timing") -> "Timing":
        return Timing(self.wall - other.wall, self.cpu - other.cpu)


def clock() -> Timing:
    """Now, in this process: subtract two readings to time an operation."""
    return Timing(time.perf_counter(), time.process_time())


@dataclass
class Tally:
    """Operations attempted, failed or wrong, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str], attempted: int = 1, failed: int | None = None) -> None:
        self.attempted += attempted
        self.failed += (1 if problems else 0) if failed is None else failed
        self.problems.extend(problems)


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_child(argv: list[str], env: dict | None = None) -> tuple[int, str, Timing, float]:
    """Run a child process to completion: (exit code, stdout, its time, peak RSS MB).

    The child is killed if it runs longer than ``CHILD_TIMEOUT_S``.
    """
    WORK.mkdir(exist_ok=True)
    out_path = WORK / f"child-{os.getpid()}.out"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=ROOT,
                                env=env or child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)   # wait4 also gives the child's rusage
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text()
    out_path.unlink()
    return (proc.returncode, stdout, Timing(wall, usage.ru_utime + usage.ru_stime),
            usage.ru_maxrss / 1024.0)


class Workload:
    """A workload that runs uppkit in the benchmark's own process.

    ``min_rounds`` is the fewest rounds a run makes, whatever ``--seconds`` says.
    ``light`` and ``heavy`` name the two times of ``summary`` that are gated.
    """

    min_rounds = 5

    light: str
    heavy: str

    def setup_samples(self, seed: int, repeats: int) -> list[Timing]:
        """Times of ``repeats`` set-ups, each in a fresh interpreter that
        imports uppkit, builds the inputs and warms up, so imports count."""
        samples = []
        for _ in range(repeats):
            code, _, took, _ = run_child(
                [sys.executable, str(HERE / "run.py"), "--workload", self.name,
                 "--seed", str(seed), "--setup-probe"])
            if code != 0:
                raise RuntimeError(f"set-up of {self.name} failed with exit code {code}")
            samples.append(took)
        return samples

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_once(self, state, tally: Tally, tracer: Tracer | None = None) -> dict:
        return {}


class CliScreen(Workload):
    """One fresh ``uppkit`` process per command on the bundled Staples fixtures.

    The gated times are the median and the tail of the commands' cold times.
    """

    name = "cli_screen"
    light, heavy = "cli_cold_p50_s", "cli_cold_tail_s"
    market = str(FIXTURES / "staples_od.json")
    economy = str(FIXTURES / "staples_od_economy.json")
    commands = (
        ("guppi", ["guppi", market]),
        ("cmcr", ["cmcr", market]),
        ("welfare", ["welfare", "--passthrough", "ces", market]),
        ("passthrough", ["passthrough", market]),
        ("simulate", ["simulate", market, economy]),
    )

    def __init__(self):
        self.peak_rss = 0.0

    @staticmethod
    def argv(args: list[str]) -> list[str]:
        return [sys.executable, str(HERE / "cli_child.py"), *args, "--format", "json"]

    def setup(self, seed: int):
        # the fixtures are fixed inputs; set-up is a first command, which also
        # leaves the byte-code caches warm as an installed package would have them
        code, _, _, _ = run_child(self.argv(self.commands[-1][1]))
        if code != 0:
            raise RuntimeError(f"uppkit simulate exited with {code} during set-up")
        return None

    def setup_samples(self, seed: int, repeats: int) -> list[Timing]:
        """Times of ``repeats`` first commands."""
        samples = []
        for _ in range(repeats):
            code, _, took, _ = run_child(self.argv(self.commands[-1][1]))
            if code != 0:
                raise RuntimeError(f"uppkit simulate exited with {code} during set-up")
            samples.append(took)
        return samples

    def peak_rss_mb(self) -> float:
        """Of the largest measured command process."""
        return self.peak_rss

    def run_round(self, state, tally: Tally, tracer: Tracer | None = None) -> dict:
        times: dict[str, list[Timing]] = {}
        for command, args in self.commands:
            if tracer is None:
                code, out, took, rss = run_child(self.argv(args))
            else:
                trace_path = WORK / f"child-{os.getpid()}.trace"
                with tracer.operation(f"op.{self.name}.{command}") as op:
                    code, out, took, rss = run_child(
                        self.argv(args), child_env(PERFBENCH_TRACE_OUT=str(trace_path)))
                    if trace_path.exists():
                        tracer.adopt(read_spans(trace_path), op)
                        trace_path.unlink()
            self.peak_rss = max(self.peak_rss, rss)
            times[command] = [took]
            tally.record(checks.check_cli(command, code, out))
        return times

    def summary(self, rounds: list[dict], once: dict, kind: str) -> dict[str, float]:
        cold = [getattr(t, kind) for r in rounds for part in r.values() for t in part]
        pct, tail = tail_percentile(cold)
        return {"cli_cold_p50_s": statistics.median(cold), "cli_cold_tail_s": tail,
                "cli_cold_tail_percentile": pct, "cli_cold_samples": len(cold)}


class SimGrid(Workload):
    """In-process ``simulate`` with the default SolverConfig on seeded markets.

    Rounds of the small batch and the mid markets repeat while the run
    measures; their medians are the gated times. The large market is solved
    once per run, after the rounds, and its time is printed, not gated: a
    single solve of 5 to 9 s gives one sample per run, and its Newton step
    count, so its work, changes by up to a third with the seed.
    """

    name = "sim_grid"
    light, heavy = "sim_small_s", "sim_mid_s"

    def setup(self, seed: int):
        cases = inputs.sim_grid_cases(seed)
        for case in cases[:5]:
            simulation.simulate(case.build_problem())
        return cases

    def solve(self, cases, buckets: tuple[str, ...], tally: Tally,
              tracer: Tracer | None) -> dict:
        tolerance = simulation.SolverConfig().tolerance
        totals = dict.fromkeys(buckets, Timing(0.0, 0.0))
        for case in cases:
            if case.bucket not in totals:
                continue
            problem = case.build_problem()
            with maybe_operation(tracer, f"op.{self.name}.{case.bucket}"):
                start = clock()
                result, error = call(simulation.simulate, problem)
                totals[case.bucket] += clock() - start
            tally.record(error or checks.check_simulation(case, result, tolerance))
        return {bucket: [total] for bucket, total in totals.items()}

    def run_round(self, cases, tally: Tally, tracer: Tracer | None = None) -> dict:
        return self.solve(cases, ("small", "mid"), tally, tracer)

    def run_once(self, cases, tally: Tally, tracer: Tracer | None = None) -> dict:
        return self.solve(cases, ("large",), tally, tracer)

    def summary(self, rounds: list[dict], once: dict, kind: str) -> dict[str, float]:
        return {"sim_small_s": median_of(rounds, "small", kind),
                "sim_mid_s": median_of(rounds, "mid", kind),
                "sim_large_s": getattr(once["large"][0], kind)}


class HarnessMC(Workload):
    """The criterion-10 accuracy experiment: 200 CES and 200 logit markets.

    Each model's 200 markets run as five 40-market experiments, chunk ``k``
    at seed ``5 * seed + k``. CES and logit chunks alternate, so a slow spell
    of the host falls on both models. Every round runs the same markets, and
    a run makes at least two rounds. The gated time of a model is the time of
    its 200 markets: each chunk's median over rounds, summed over the five
    chunks. A sum, not a multiple of the median chunk, because the solver's
    work differs widely from market to market: the work in a median chunk
    varies about twice as much between seeds as the work in all five.
    """

    name = "harness_mc"
    light, heavy = "harness_ces_s", "harness_logit_s"
    models = ("ces", "logit")
    min_rounds = 2
    chunks = 5
    chunk_markets = 40

    def setup(self, seed: int):
        for model in self.models:
            harness.run_accuracy_experiment(harness.HarnessConfig(seed=seed, n_markets=4, model=model))
        return seed

    def run_round(self, seed, tally: Tally, tracer: Tracer | None = None) -> dict:
        times = {model: [] for model in self.models}
        records = {model: [] for model in self.models}
        for k in range(self.chunks):
            for model in self.models:
                config = harness.HarnessConfig(seed=self.chunks * seed + k,
                                               n_markets=self.chunk_markets, model=model)
                with maybe_operation(tracer, f"op.{self.name}.{model}"):
                    start = clock()
                    result, error = call(harness.run_accuracy_experiment, config)
                    times[model].append(clock() - start)
                if error:
                    tally.record(error, attempted=self.chunk_markets, failed=self.chunk_markets)
                    continue
                # each market is an operation
                tally.record([f"{model} seed {config.seed} trial {t} did not converge"
                              for t in result.failures],
                             attempted=self.chunk_markets, failed=result.summary["n_failed"])
                records[model].extend(result.records)
        for model in self.models:
            # and so is the summary check over the model's 200 markets
            tally.record(checks.check_experiment(model, records[model]))
        return times

    def summary(self, rounds: list[dict], once: dict, kind: str) -> dict[str, float]:
        return {f"harness_{model}_s": sum(
                    statistics.median(getattr(r[model][k], kind) for r in rounds)
                    for k in range(self.chunks))
                for model in self.models}


class FitGeo(Workload):
    """``fit_nested_ces`` on a noiseless 50x20 and a noisy 1000x100 geography."""

    name = "fit_geo"
    light, heavy = "fit_small_s", "fit_large_s"

    def setup(self, seed: int):
        cases = inputs.fit_geo_cases(seed)
        fit(cases[0])
        return cases

    def run_round(self, cases, tally: Tally, tracer: Tracer | None = None) -> dict:
        times = {}
        for case in cases:
            with maybe_operation(tracer, f"op.{self.name}.{case.bucket}"):
                start = clock()
                result, error = call(fit, case)
                times[case.bucket] = [clock() - start]
            tally.record(error or checks.check_fit(case, result))
        return times

    def summary(self, rounds: list[dict], once: dict, kind: str) -> dict[str, float]:
        return {f"fit_{b}_s": median_of(rounds, b, kind) for b in ("small", "large")}


def fit(case: inputs.FitCase):
    return fitting.fit_nested_ces(case.revenues, case.design, case.budgets, case.nests,
                                  mask=case.mask, consumer_weights=case.weights)


def call(fn, *args):
    """(result, None), or (None, [message]) when the operation raises: a failed
    operation is counted, not allowed to end the run."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, [f"{fn.__name__} raised {type(exc).__name__}: {exc}"]


def maybe_operation(tracer: Tracer | None, name: str):
    """``tracer.operation(name)`` when tracing, otherwise a no-op context."""
    return tracer.operation(name) if tracer is not None else nullcontext()


def median_of(rounds: list[dict], part: str, kind: str) -> float:
    """Median over rounds of one part's ``kind`` ("wall" or "cpu") seconds."""
    return statistics.median(getattr(t, kind) for r in rounds for t in r[part])


def tail_percentile(samples: list[float], beyond: int = 10) -> tuple[float, float]:
    """Highest percentile with at least ``beyond`` samples above it, and its value.

    With fewer than ``beyond + 1`` samples there is no such percentile and the
    maximum is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return 100.0, ordered[-1]
    k = n - beyond - 1          # 0-based rank with `beyond` samples after it
    return 100.0 * (k + 1) / n, ordered[k]


WORKLOADS = {w.name: w for w in (CliScreen, SimGrid, HarnessMC, FitGeo)}
