"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the same
markets and geographies. Markets are kept as raw arrays and turned into
fresh uppkit objects on demand, so the correctness checks in ``checks.py``
can recompute results from the same arrays without going through uppkit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from uppkit import harness
from uppkit.ces import CESEconomy, Consumer
from uppkit.market import Market, MergerSpec, Product
from uppkit.simulation import SimulationProblem, merger_problem

# (J products, N consumers) of the mid and large sim_grid buckets
MID_SIZES = ((10, 200), (20, 500))
LARGE_SIZES = ((40, 1000),)
N_SMALL = 100
SMALL_J = (2, 6)
SMALL_N = (1, 5)
ETA_RANGE = (3.0, 8.0)
CONSIDER_PROB = 0.3

# fit_geo: the 50x20 geography of acceptance criterion 12, always at its
# seed 5, and the large noisy one, drawn from the workload seed
FIT_SMALL = dict(seed=5, n_tracts=50, n_stores=20, mu=0.46)
FIT_LARGE = dict(n_tracts=1000, n_stores=100, extent=40.0)
FIT_NOISE = 0.05


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


@dataclass(frozen=True)
class SimCase:
    """One sim_grid market as arrays: single-product firms f0..f{J-1}, merger f0+f1.

    ``u`` is (N, J+1) with -inf off the consideration set and the outside
    option in the last column at utility 0; ``margins`` are pre-merger.
    """

    bucket: str
    ids: tuple[str, ...]
    u: np.ndarray
    wb: np.ndarray
    eta: float
    margins: np.ndarray
    revenues: np.ndarray

    @property
    def post_owners(self) -> tuple[str, ...]:
        return ("f0+f1", "f0+f1") + tuple(f"f{k}" for k in range(2, len(self.ids)))

    def build_problem(self) -> SimulationProblem:
        """Fresh uppkit objects for this market, so no cached state carries over."""
        j = len(self.ids)
        consumers = tuple(
            Consumer(f"c{i}", float(self.wb[i]),
                     {self.ids[k]: float(row[k]) for k in range(j) if np.isfinite(row[k])})
            for i, row in enumerate(self.u)
        )
        market = Market(tuple(
            Product(self.ids[k], f"f{k}", float(self.revenues[k]), float(self.margins[k]))
            for k in range(j)
        ))
        return merger_problem(market, CESEconomy(consumers, self.eta), MergerSpec("f0", "f1"))


def share_rows(u: np.ndarray) -> np.ndarray:
    """Row softmax with -inf entries mapped to zero share."""
    m = np.max(u, axis=1, keepdims=True)
    z = np.exp(u - m)
    return z / z.sum(axis=1, keepdims=True)


def foc_margins(u: np.ndarray, wb: np.ndarray, eta: float) -> np.ndarray:
    """Single-product-firm Bertrand margins m_j = -1/eps_jj at the given shares."""
    a = share_rows(u)[:, :-1]
    wa = wb[:, None] * a
    eps = (1.0 - eta) * (wa * (1.0 - a)).sum(axis=0) / wa.sum(axis=0) - 1.0
    return -1.0 / eps


def sim_case(rng: np.random.Generator, bucket: str, n_products: int, n_consumers: int,
             subsets: bool) -> SimCase:
    """Draw utilities, budgets and eta; set margins from the pre-merger FOC.

    With ``subsets`` each consumer considers a random subset of at least two
    products, and every product is considered by some consumer.
    """
    j, n = n_products, n_consumers
    eta = float(rng.uniform(*ETA_RANGE))
    util = rng.normal(0.0, 1.0, size=(n, j))
    budgets = rng.uniform(50.0, 150.0, size=n)
    if subsets:
        consider = rng.uniform(size=(n, j)) < CONSIDER_PROB
        for i in range(n):
            if consider[i].sum() < 2:
                consider[i, rng.choice(j, size=2, replace=False)] = True
        for k in np.flatnonzero(~consider.any(axis=0)):
            consider[rng.integers(n), k] = True
    else:
        consider = np.ones((n, j), dtype=bool)
    u = np.zeros((n, j + 1))
    u[:, :j] = np.where(consider, util, -np.inf)
    ids = tuple(f"p{k}" for k in range(j))
    revenues = budgets @ share_rows(u)[:, :j]
    return SimCase(bucket, ids, u, budgets, eta, foc_margins(u, budgets, eta), revenues)


def sim_grid_cases(seed: int) -> list[SimCase]:
    """The sim_grid problems in run order: small batch, then mid, then large."""
    rng = _rng(seed, 1)
    cases = []
    for _ in range(N_SMALL):
        j = int(rng.integers(SMALL_J[0], SMALL_J[1] + 1))
        n = int(rng.integers(SMALL_N[0], SMALL_N[1] + 1))
        cases.append(sim_case(rng, "small", j, n, subsets=False))
    for bucket, sizes in (("mid", MID_SIZES), ("large", LARGE_SIZES)):
        for j, n in sizes:
            cases.append(sim_case(rng, bucket, j, n, subsets=True))
    return cases


@dataclass(frozen=True)
class FitCase:
    """One fit_geo geography: what the fitter sees plus the ground truth."""

    bucket: str
    revenues: np.ndarray
    design: np.ndarray
    budgets: np.ndarray
    nests: list[str]
    mask: np.ndarray
    weights: np.ndarray
    theta: np.ndarray
    mu: float
    noisy: bool


def _fit_case(bucket: str, fx: harness.SpatialFixture, revenues: np.ndarray,
              noisy: bool) -> FitCase:
    return FitCase(bucket, revenues, fx.design, fx.budgets,
                   [fx.nests[s] for s in fx.store_ids], fx.mask, fx.weights,
                   fx.theta, fx.mu, noisy)


def fit_geo_cases(seed: int) -> list[FitCase]:
    """The noiseless criterion-12 50x20 geography, and a 1000x100 geography
    drawn from ``seed`` whose observed revenues carry seeded 5% log-normal noise."""
    small = harness.generate_spatial_fixture(harness.SpatialConfig(**FIT_SMALL))
    large = harness.generate_spatial_fixture(harness.SpatialConfig(seed=seed, **FIT_LARGE))
    clean = np.array([large.revenues[s] for s in large.store_ids])
    noise = np.exp(_rng(seed, 2).normal(0.0, FIT_NOISE, size=clean.shape))
    return [
        _fit_case("small", small, np.array([small.revenues[s] for s in small.store_ids]), False),
        _fit_case("large", large, clean * noise, True),
    ]
