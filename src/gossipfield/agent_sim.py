"""Event-driven simulation of the finite-population stochastic opinion
process.

Each of the n agents carries a rate-1 Poisson clock; the superposition makes
jump times exponential with mean 1/n. At a jump a uniformly chosen agent
updates her opinion through the interaction kernel, observing another
uniformly chosen agent (or, in the symmetric variant, both update with the
same sampled weight).

Opinions are scalar (d = 1); the analysis pipeline (exact W1, grid solver)
is one-dimensional throughout.

The jumps are applied in conflict-free runs: maximal stretches of
consecutive jumps in which no jump touches an agent that an earlier jump of
the stretch wrote. A run's reads all happen before its writes, as one
vectorised gather, update and scatter, and it still gives each jump the
values and the arithmetic of the jump-by-jump loop, to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (BoundedConfidence, FiniteMixture, Gaussian,
                      KernelSpec, density_moment, draw_mixture, grid_moment,
                      make_env_sampler, weight_value)
from .measures import AtomicMeasure, GridMeasure1D, checked_times, moment


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
        return law.measure.positions[idx]
    if isinstance(law, InitGrid):
        return law.grid.sampler()(rng, n)
    raise SimError(f"unknown initial law {law!r}")


def initial_support(law: InitialLaw) -> tuple[float, float]:
    if isinstance(law, InitUniform):
        return (law.a, law.b)
    if isinstance(law, InitAtoms):
        x = law.measure.positions
        return (float(x.min()), float(x.max()))
    if isinstance(law, InitGrid):
        return (law.grid.lo, law.grid.hi)
    raise SimError(f"unknown initial law {law!r}")


def initial_moment(law: InitialLaw, k: int) -> float:
    """k-th moment of the initial law, exact: a grid law is read as a
    piecewise-uniform density, as it is sampled."""
    if isinstance(law, InitUniform):
        return density_moment(law.a, law.b, law.b - law.a, k)
    if isinstance(law, InitAtoms):
        return moment(law.measure, k)
    if isinstance(law, InitGrid):
        return grid_moment(law.grid, k)
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


# ---------------------------------------------------------------------------
# dynamics


_CHUNK = 1 << 14  # jumps per batch of draws
# jumps per conflict analysis: of the block sizes 1024 to 16384, 4096 took
# the least time per chunk (1.4 ms, against 1.9-2.2 ms for one pass)
_BLOCK = 1 << 12


def run_ends(a: np.ndarray, b: np.ndarray, writes_b: bool) -> np.ndarray:
    """The maximal conflict-free runs of a block of jumps.

    Jump j reads x[a[j]] and x[b[j]] and writes x[a[j]], and also x[b[j]]
    when writes_b. Returns e with e[s] the end of the longest run of jumps
    [s, e[s]) in which no jump touches an agent that an earlier jump of the
    run wrote: the first j > s with dep[j] >= s, where dep[j] is the last
    jump before j that wrote an agent j reads, or len(a) if there is none.

    The reads and writes sort on one integer key, agent << shift | slot.
    Jump j owns the slots 4j + 4 (read of a), 4j + 5 (read of b), 4j + 6
    (write of a) and 4j + 7 (write of b), so its writes sort after its
    reads, and slot 0, below every event, marks an agent's start. A running
    maximum over the keys, with each read's key lowered to its agent's
    start, is at every read the last earlier write of the same agent."""
    m = a.size
    shift = (4 * m + 4).bit_length()
    low = (1 << shift) - 1
    slot = np.arange(4, 4 * m + 4, 4)
    keys = np.empty(4 * m if writes_b else 3 * m, dtype=np.int64)
    keys[:m] = a << shift | slot
    keys[m:2 * m] = b << shift | slot + 1
    keys[2 * m:3 * m] = a << shift | slot + 2
    if writes_b:
        keys[3 * m:] = b << shift | slot + 3
    keys.sort()
    last = keys & (-(keys >> 1 & 1) | ~low)
    np.maximum.accumulate(last, out=last)
    last &= low
    last >>= 2
    last -= 1
    # by slot: at a read, the jump it depends on (-1 for none)
    dep = np.empty(4 * m + 4, dtype=np.int64)
    dep[keys & low] = last
    reach = np.maximum(dep[4::4], dep[5::4])
    np.maximum.accumulate(reach, out=reach)
    # e[s] = min{j : reach[j] >= s}: a reverse cumulative minimum over the
    # jumps at which reach rises
    rise = np.flatnonzero(reach[1:] > reach[:-1]) + 1
    first = np.full(m + 1, m)
    first[reach[rise]] = rise
    return np.minimum.accumulate(first[::-1])[:0:-1]


def run(cfg: SimConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Run one replica to the horizon. Returns the opinions at the snapshot
    times, row i at cfg.snapshot_times[i]: an array of shape
    (len(cfg.snapshot_times), n), written into `out` when given (a run that
    reuses one block allocates none per snapshot). Row i is the empirical
    measure at that time, n atoms of mass 1/n. Trajectories are piecewise
    constant and right continuous, so a snapshot holds the value after the
    last jump at or before it. Deterministic given (config, seed)."""
    snapshots, _ = run_with_state(cfg, out)
    return snapshots


def run_with_state(cfg: SimConfig, out: np.ndarray | None = None
                   ) -> tuple[np.ndarray, SimState]:
    """As run(), additionally returning the terminal SimState.

    Every random quantity is drawn per chunk of _CHUNK jumps, in this
    order: the waiting times, the activated agents, the observed agents;
    then, when alpha < 1, the branch coins and the environment signals;
    then the weights of each finite-mixture law in use (internal, then
    external). A run with alpha = 1 and a distance law draws only the
    first three. The jump clocks are the running sum of the waiting times,
    accumulated in order from the previous clock, so the snapshots and the
    stop at the horizon cut each chunk into segments before any jump is
    applied.

    The opinions stay one array for the whole run, followed by the chunk's
    signals: an environment jump observes the signal's slot instead of an
    agent, so every jump j moves x[a_j] toward x[b_j]. The jumps are
    applied in conflict-free runs (run_ends): stretches in which no jump
    touches an agent that an earlier jump of the stretch wrote. A run is
    one gather of x[a] and x[b], one update (1.0 - w) * xa + w * xb in
    float64 and one scatter, every read before any write. Each jump then
    reads exactly the values the jump-by-jump loop would give it and does
    the same arithmetic, so the opinions, snapshots, clock and jump count
    are the sequential ones to the bit. A snapshot is a copy of the
    opinions into its row of the block."""
    shape = (len(cfg.snapshot_times), cfg.n)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise SimError(f"snapshot block must be float64 of shape {shape}")
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
    int_mix = isinstance(internal, FiniteMixture)
    ext_mix = mixed and isinstance(external, FiniteMixture)
    distance = isinstance(internal, (BoundedConfidence, Gaussian)) or (
        mixed and isinstance(external, (BoundedConfidence, Gaussian)))

    ptr = 0
    # the opinions, then, with an environment, the chunk's signals
    x = np.empty(n + _CHUNK if mixed else n)
    x[:n] = state.opinions
    signal_slots = np.arange(n, n + _CHUNK) if mixed else None
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
        if mixed:
            coins = rng.random(_CHUNK) < alpha
            x[n:] = env_sampler(rng, _CHUNK)
            # an environment jump observes its signal's slot
            bb = np.where(coins, bb, signal_slots)
        if int_mix:
            int_draws = draw_mixture(internal, rng, _CHUNK)
        if ext_mix:
            ext_draws = draw_mixture(external, rng, _CHUNK)

        # the weights: one float when every jump has the same one; else per
        # run a slice of the chunk's weights, or, with a distance law, each
        # branch's weights at |xa - xb|
        weigh = None
        if distance:
            def weigh(s, e, xa, xb):
                d = np.abs(xa - xb)
                w = int_draws[s:e] if int_mix else weight_value(internal, d)
                if mixed:
                    u = ext_draws[s:e] if ext_mix \
                        else weight_value(external, d)
                    w = np.where(coins[s:e], w, u)
                return w
        else:
            static = int_draws if int_mix else internal.omega
            if mixed:
                static = np.where(coins, static,
                                  ext_draws if ext_mix else external.omega)
            if np.min(static) == np.max(static):
                w = float(np.max(static))
                c = 1.0 - w
            else:
                def weigh(s, e, xa, xb):
                    return static[s:e]

        ends = []
        for i in range(0, end, _BLOCK):
            ends += (run_ends(aa[i:i + _BLOCK], bb[i:i + _BLOCK], symmetric)
                     + i).tolist()
        lo = 0
        for j, hi in enumerate(cuts + [end]):
            s = lo
            while s < hi:
                e = ends[s]
                if e > hi:
                    e = hi
                a, b = aa[s:e], bb[s:e]
                xa, xb = x[a], x[b]
                if weigh is not None:
                    w = weigh(s, e, xa, xb)
                    c = 1.0 - w
                x[a] = c * xa + w * xb
                if symmetric:  # an environment jump writes its own slot
                    x[b] = c * xb + w * xa
                s = e
            count += hi - lo
            lo = hi
            if j < len(cuts):
                out[ptr + j] = x[:n]
        ptr += len(cuts)
    state.opinions = x[:n].copy()
    state.t = t
    state.update_count = count
    return out, state
