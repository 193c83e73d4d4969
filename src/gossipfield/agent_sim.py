"""Event-driven simulation of the finite-population stochastic opinion
process.

Each of the n agents carries a rate-1 Poisson clock; the superposition makes
jump times exponential with mean 1/n. At a jump a uniformly chosen agent
updates her opinion through the interaction kernel, observing another
uniformly chosen agent (or, in the symmetric variant, both update with the
same sampled weight).

Opinions are scalar (d = 1); the analysis pipeline (exact W1, grid solver)
is one-dimensional throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import (KernelSpec, draw_mixture, make_env_sampler,
                      scalar_weight)
from .measures import AtomicMeasure, GridMeasure1D, checked_times


class SimError(ValueError):
    pass


# ---------------------------------------------------------------------------
# initial laws


@dataclass(frozen=True)
class InitUniform:
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise SimError("uniform initial law needs b > a")


@dataclass(frozen=True)
class InitAtoms:
    measure: AtomicMeasure

    def __post_init__(self):
        if not self.measure.normalized:
            raise SimError("atomic initial law must be normalized")
        if self.measure.dim != 1:
            raise SimError("simulator is 1-D")


@dataclass(frozen=True)
class InitGrid:
    grid: GridMeasure1D

    def __post_init__(self):
        if not self.grid.normalized:
            raise SimError("grid initial law must be normalized")


InitialLaw = InitUniform | InitAtoms | InitGrid


def sample_initial(law: InitialLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(law, InitUniform):
        return rng.uniform(law.a, law.b, n)
    if isinstance(law, InitAtoms):
        idx = rng.choice(law.measure.weights.size, size=n,
                         p=law.measure.weights)
        return law.measure.positions[idx, 0]
    if isinstance(law, InitGrid):
        g = law.grid
        cdf = np.cumsum(g.cells)
        cdf /= cdf[-1]
        i = np.searchsorted(cdf, rng.random(n), side="right")
        i = np.minimum(i, g.m - 1)
        return g.lo + (i + rng.random(n)) * g.h
    raise SimError(f"unknown initial law {law!r}")


def initial_support(law: InitialLaw) -> tuple[float, float]:
    if isinstance(law, InitUniform):
        return (law.a, law.b)
    if isinstance(law, InitAtoms):
        x = law.measure.positions[:, 0]
        return (float(x.min()), float(x.max()))
    if isinstance(law, InitGrid):
        return (law.grid.lo, law.grid.hi)
    raise SimError(f"unknown initial law {law!r}")


# ---------------------------------------------------------------------------
# state and configuration


@dataclass
class SimState:
    """One stochastic replica: opinions, continuous clock, PRNG, jump count."""

    opinions: np.ndarray
    t: float
    rng: np.random.Generator
    update_count: int = 0

    def __post_init__(self):
        self.opinions = np.asarray(self.opinions, dtype=float)
        if self.opinions.ndim != 1:
            raise SimError("simulator is 1-D")
        if self.opinions.size < 2:
            raise SimError("need at least two agents")

    @property
    def n(self) -> int:
        return self.opinions.size


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    n: int = 1000
    kernel: KernelSpec
    initial: InitialLaw
    horizon: float = 10.0
    snapshot_times: tuple[float, ...] = None  # None: 11 in [0, horizon]
    seed: int = 0
    symmetric: bool = False
    allow_self: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise SimError("need at least two agents")
        object.__setattr__(self, "snapshot_times", checked_times(
            self.snapshot_times, self.horizon, SimError))


def init_state(cfg: SimConfig) -> SimState:
    rng = np.random.default_rng(cfg.seed)
    return SimState(sample_initial(cfg.initial, cfg.n, rng), 0.0, rng)


def dispersion(s: SimState) -> float:
    """Mean squared deviation of opinions around their current mean."""
    x = s.opinions
    return float(np.mean((x - x.mean()) ** 2))


# ---------------------------------------------------------------------------
# dynamics


_CHUNK = 1 << 14


def run(cfg: SimConfig) -> list[tuple[float, AtomicMeasure]]:
    """Run one replica to the horizon, emitting the empirical measure at
    each snapshot time (trajectories are piecewise constant and right
    continuous, so a snapshot holds the value after the last jump at or
    before it). Deterministic given (config, seed)."""
    snapshots, _ = run_with_state(cfg)
    return snapshots


def run_with_state(cfg: SimConfig) -> tuple[list, SimState]:
    """As run(), additionally returning the terminal SimState.

    Every random quantity is drawn per chunk of _CHUNK jumps, in this
    order: the waiting times, the activated agents, the observed agents;
    then, when alpha < 1, the branch coins and the environment signals;
    then the weights of each finite-mixture law in use (internal, then
    external). A run with alpha = 1 and a distance law draws only the
    first three. The jump clocks are the running sum of the waiting times,
    accumulated in order from the previous clock, so the snapshots and the
    stop at the horizon cut each chunk into segments before any jump is
    applied; the per-jump loop only reads the draws, as Python lists, and
    applies distance-dependent laws through kernels.scalar_weight."""
    state = init_state(cfg)
    k = cfg.kernel
    rng = state.rng
    n = cfg.n
    tau = cfg.horizon
    snaps = cfg.snapshot_times
    symmetric = cfg.symmetric
    allow_self = cfg.allow_self
    alpha = k.alpha
    mixed = alpha < 1.0
    env_sampler = make_env_sampler(k.environment) if mixed else None
    internal, external = k.internal, k.external
    w_int = scalar_weight(internal)
    w_ext = scalar_weight(external)
    coins = signals = int_draws = ext_draws = None

    out: list[tuple[float, AtomicMeasure]] = []
    ptr = 0
    x = state.opinions.tolist()
    t = 0.0
    count = 0
    scale = 1.0 / n
    done = False
    while not done:
        dts = rng.exponential(scale, _CHUNK)
        clock = np.cumsum(np.concatenate(([t], dts)))[1:]
        # the chunk's jumps at or before the horizon, and, for each pending
        # snapshot that a later jump of this chunk passes, those at or
        # before it (a snapshot holds the state after them)
        end = int(np.searchsorted(clock, tau, side="right"))
        cuts = np.searchsorted(clock, snaps[ptr:], side="right")
        cuts = cuts[cuts < _CHUNK].tolist()
        done = end < _CHUNK
        # the clock after the chunk: the first jump past the horizon, or
        # the chunk's last jump
        t = float(clock[min(end, _CHUNK - 1)])
        aa = rng.integers(0, n, _CHUNK)
        if allow_self:
            bb = rng.integers(0, n, _CHUNK)
        else:
            bb = rng.integers(0, n - 1, _CHUNK)
            bb += bb >= aa
        aa, bb = aa[:end].tolist(), bb[:end].tolist()
        if mixed:
            coins = (rng.random(_CHUNK)[:end] < alpha).tolist()
            signals = env_sampler(rng, _CHUNK)[:end].tolist()
        if w_int is None:
            int_draws = draw_mixture(internal, rng, _CHUNK)[:end].tolist()
        if mixed and w_ext is None:
            ext_draws = draw_mixture(external, rng, _CHUNK)[:end].tolist()
        lo = 0
        for j, hi in enumerate(cuts + [end]):
            for i in range(lo, hi):
                a = aa[i]
                xa = x[a]
                if not mixed or coins[i]:
                    b = bb[i]
                    xb = x[b]
                    w = int_draws[i] if w_int is None else w_int(abs(xa - xb))
                    x[a] = (1.0 - w) * xa + w * xb
                    if symmetric:
                        x[b] = (1.0 - w) * xb + w * xa
                else:
                    e = signals[i]
                    u = ext_draws[i] if w_ext is None else w_ext(abs(xa - e))
                    x[a] = (1.0 - u) * xa + u * e
            count += hi - lo
            lo = hi
            if j < len(cuts):
                out.append((snaps[ptr + j],
                            AtomicMeasure.empirical(np.array(x))))
        ptr += len(cuts)
    state.opinions = np.array(x)
    state.t = t
    state.update_count = count
    return out, state
