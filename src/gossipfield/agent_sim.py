"""Event-driven simulation of the finite-population stochastic opinion
process.

Each of the n agents carries a rate-1 Poisson clock; the superposition makes
jump times exponential with mean 1/n. At a jump a uniformly chosen agent
updates her opinion through the interaction kernel, observing another
uniformly chosen agent (or, in the symmetric variant, both update with the
same sampled weight).

Opinions are scalar (d = 1); the analysis pipeline (exact W1, grid solver)
is one-dimensional throughout. The n opinions at t = 0 are independent
draws from the initial law, a law on the line of the same family as the
environment (kernels.Law), by its one sampler (kernels.make_env_sampler).

A replica draws its waiting times, agents and weights in chunks, each
sized to the jumps expected before its horizon (at most 16384), so a short
run draws little past the horizon.

The jumps are applied in conflict-free runs: maximal stretches of
consecutive jumps in which no jump touches an agent that an earlier jump of
the stretch wrote. A run's reads all happen before its writes, as one
vectorised gather, update and scatter, and it still gives each jump the
values and the arithmetic of the jump-by-jump loop, to the bit. Replicas
of one config that differ only in seed can run in lockstep: their runs
touch different opinions, so the k-th runs of all of them share one
gather, update and scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (BoundedConfidence, Constant, FiniteMixture, Gaussian,
                      KernelSpec, Law, draw_mixture, make_env_sampler,
                      weight_value)
from .measures import checked_times


class SimError(ValueError):
    pass


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
    initial: Law
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


def init_state(cfg: SimConfig, seed: int | None = None) -> SimState:
    """The state at t = 0 of the replica of cfg with `seed` (cfg.seed when
    None)."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    return SimState(make_env_sampler(cfg.initial)(rng, cfg.n), 0.0, rng)


# ---------------------------------------------------------------------------
# dynamics


_CHUNK = 1 << 14  # the most jumps per batch of draws
# jumps per conflict analysis: of the block sizes 1024 to 16384, 4096 took
# the least time per chunk (1.4 ms, against 1.9-2.2 ms for one pass)
_BLOCK = 1 << 12


def _chunk_size(n: int, left: float) -> int:
    """The jumps a replica of n agents draws for its next chunk, with
    `left` time to its horizon: the expected count L = n * left, with
    6 sqrt(L) + 64 to spare, at most _CHUNK. A chunk whose last jump comes
    before the horizon is followed by one sized to the time then left."""
    expected = n * left
    return min(_CHUNK, int(expected + 6.0 * math.sqrt(expected)) + 64)


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


def run(cfg: SimConfig, out: np.ndarray | None = None,
        seeds=None) -> np.ndarray:
    """Run one replica to the horizon. Returns the opinions at the snapshot
    times, row i at cfg.snapshot_times[i]: an array of shape
    (len(cfg.snapshot_times), n), written into `out` when given (a run that
    reuses one block allocates none per snapshot). Row i is the empirical
    measure at that time, n atoms of mass 1/n. Trajectories are piecewise
    constant and right continuous, so a snapshot holds the value after the
    last jump at or before it. Deterministic given (config, seed).

    With `seeds`, runs one replica of cfg per seed, in place of cfg.seed,
    in lockstep (_run_batch), and returns their snapshots as one array of
    shape (len(seeds), len(cfg.snapshot_times), n): block r is, to the
    bit, what the run with seed seeds[r] returns."""
    if seeds is None:
        return run_with_state(cfg, out)[0]
    out = _snapshot_block(out, (len(seeds), len(cfg.snapshot_times), cfg.n))
    _run_batch(cfg, seeds, out)
    return out


def run_with_state(cfg: SimConfig, out: np.ndarray | None = None
                   ) -> tuple[np.ndarray, SimState]:
    """As run(), additionally returning the terminal SimState."""
    out = _snapshot_block(out, (len(cfg.snapshot_times), cfg.n))
    (state,) = _run_batch(cfg, (cfg.seed,), out[None])
    return out, state


def _snapshot_block(out, shape):
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != np.float64:
        raise SimError(f"snapshot block must be float64 of shape {shape}")
    return out


def _merge_runs(parts):
    """The runs of several replicas, merged by run index. A part is
    (bounds, arrays): the replica's run q is v[bounds[q]:bounds[q + 1]] of
    each array v, and an array not in use is None. Returns (offs, merged):
    v[offs[q]:offs[q + 1]] of each merged array v holds run q of every
    replica that has one, in replica order."""
    # run q of replica i starts at start[q, i], after every replica's runs
    # before q and the earlier replicas' runs q
    steps = max(len(bounds) for bounds, _ in parts) - 1
    lengths = np.zeros((steps, len(parts)), dtype=np.intp)
    for i, (bounds, _) in enumerate(parts):
        lengths[:len(bounds) - 1, i] = np.diff(bounds)
    start = np.cumsum(lengths.ravel()).reshape(lengths.shape) - lengths
    total = int(lengths.sum())
    merged = [None if v is None else np.empty(total, v.dtype)
              for v in parts[0][1]]
    for i, (bounds, arrays) in enumerate(parts):
        bounds = np.array(bounds)
        runs = np.diff(bounds)
        dest = np.repeat(start[:runs.size, i] - bounds[:-1], runs)
        dest += np.arange(bounds[-1])
        for m, v in zip(merged, arrays):
            if m is not None:
                m[dest] = v
    return start[:, 0].tolist() + [total], merged


def _run_batch(cfg: SimConfig, seeds, out: np.ndarray) -> list[SimState]:
    """Run one replica of cfg per seed, each to the horizon, writing the
    snapshots of replica r into out[r]. Returns the terminal states.

    Every random quantity of a replica is drawn from its own generator, per
    chunk of _chunk_size jumps (at most _CHUNK, sized to the time left to
    the horizon), in this order: the waiting times, the activated
    agents, the observed agents; then, when alpha < 1, the branch coins and
    the environment signals; then the weights of each finite-mixture law in
    use (internal, then external). A run with alpha = 1 and a distance law
    draws only the first three. The jump clocks are the running sum of the
    waiting times, accumulated in order from the previous clock, so the
    snapshots and the stop at the horizon cut each chunk into segments
    before any jump is applied.

    The opinions of all replicas are one array, each replica's followed by
    its chunk's signals: an environment jump observes the signal's slot
    instead of an agent, so every jump j moves x[a_j] toward x[b_j]. A
    replica applies its jumps in conflict-free runs (run_ends): stretches
    in which no jump touches an agent that an earlier jump of the stretch
    wrote, cut at its snapshots. Runs of different replicas touch different
    slots, so step k of a chunk applies the k-th run of every replica that
    has one, as one gather of x[a] and x[b], one update
    (1.0 - w) * xa + w * xb in float64 and one scatter, every read before
    any write. Each jump then reads exactly the values the jump-by-jump
    loop of its own replica would give it and does the same arithmetic, so
    each replica's opinions, snapshots, clock and jump count are its
    sequential ones to the bit. A snapshot is a copy of the replica's
    opinions into its row of the block, taken before the replica's first
    run past it; a replica that reaches its horizon leaves the lockstep."""
    k = cfg.kernel
    n = cfg.n
    tau = cfg.horizon
    snaps = cfg.snapshot_times
    symmetric = cfg.symmetric
    allow_self = cfg.allow_self
    alpha = k.alpha
    mixed = alpha < 1.0
    env_sampler = make_env_sampler(k.environment) if mixed else None
    internal, external = k.internal, k.external
    laws = (internal, external) if mixed else (internal,)
    int_mix = isinstance(internal, FiniteMixture)
    ext_mix = mixed and isinstance(external, FiniteMixture)
    distance = any(isinstance(law, (BoundedConfidence, Gaussian))
                   for law in laws)
    # one float when every jump has the same weight
    fixed = (all(isinstance(law, Constant) for law in laws)
             and len({law.omega for law in laws}) == 1)

    states = [init_state(cfg, seed) for seed in seeds]
    # replica r's opinions at x[r * stride:][:n], then, with an
    # environment, its chunk's signals
    stride = n + _CHUNK if mixed else n
    x = np.empty(len(seeds) * stride)
    for r, state in enumerate(states):
        x[r * stride:r * stride + n] = state.opinions
    signal_slots = np.arange(n, n + _CHUNK) if mixed else None
    # kept across chunks and replicas, and cut to each chunk's size: the
    # clock, the coins' uniforms and the run ends are read before the next
    # replica draws
    clocks = np.empty(_CHUNK)
    uniforms = np.empty(_CHUNK) if mixed else None
    ends = np.empty(_CHUNK, dtype=np.intp)
    ptr = [0] * len(seeds)
    scale = 1.0 / n
    active = list(range(len(seeds)))
    while active:
        # each replica's applied jumps, with its run bounds, and the
        # snapshots due before each merged step
        parts = []
        shots = {}
        pending = []
        for r in active:
            state = states[r]
            rng = state.rng
            base = r * stride
            size = _chunk_size(n, tau - state.t)
            clock = clocks[:size]
            rng.standard_exponential(out=clock)
            clock *= scale
            clock[0] += state.t
            np.cumsum(clock, out=clock)
            # the chunk's jumps at or before the horizon, and, for each
            # pending snapshot that a later jump of this chunk passes,
            # those at or before it (a snapshot holds the state after them)
            end = int(np.searchsorted(clock, tau, side="right"))
            cuts = np.searchsorted(clock, snaps[ptr[r]:], side="right")
            cuts = cuts[cuts < size].tolist()
            # the clock after the chunk: the first jump past the horizon,
            # or the chunk's last jump
            state.t = float(clock[min(end, size - 1)])
            state.update_count += end
            if end == size:
                pending.append(r)
            aa = rng.integers(0, n, size)
            if allow_self:
                bb = rng.integers(0, n, size)
            else:
                bb = rng.integers(0, n - 1, size)
                bb += bb >= aa
            a, b = aa[:end], bb[:end]
            coins = int_draws = ext_draws = None
            if mixed:
                rng.random(out=uniforms[:size])
                coins = uniforms[:end] < alpha
                x[base + n:base + n + size] = env_sampler(rng, size)
                # an environment jump observes its signal's slot
                b = np.where(coins, b, signal_slots[:end])
            if int_mix:
                int_draws = draw_mixture(internal, rng, size)[:end]
            if ext_mix:
                ext_draws = draw_mixture(external, rng, size)[:end]
            for i in range(0, end, _BLOCK):
                j = min(i + _BLOCK, end)
                ends[i:j] = run_ends(a[i:j], b[i:j], symmetric)
                ends[i:j] += i
            # the runs: bounds[q] to bounds[q + 1]
            bounds = [0]
            s = 0
            for j, hi in enumerate(cuts + [end]):
                while s < hi:
                    e = ends.item(s)
                    s = e if e < hi else hi
                    bounds.append(s)
                if j < len(cuts):
                    shots.setdefault(len(bounds) - 1, []).append(
                        (r, ptr[r] + j))
            ptr[r] += len(cuts)
            a += base
            b += base
            parts.append((bounds, (a, b, coins, int_draws, ext_draws)))

        # merge by run index: step q applies run q of every replica that
        # has one, in replica order (a lone replica's jumps are in order)
        offs, merged = parts[0]
        if len(parts) > 1:
            offs, merged = _merge_runs(parts)
        steps = len(offs) - 1
        aa, bb, coins, int_draws, ext_draws = merged

        # the weights: one float when every jump has the same one; else per
        # step a slice of the merged weights, or, with a distance law, each
        # branch's weights at |xa - xb|
        weigh = None
        if fixed:
            w = float(internal.omega)
            c = 1.0 - w
        elif distance:
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

            def weigh(s, e, xa, xb):
                return static[s:e]

        for q in range(steps + 1):
            for r, row in shots.get(q, ()):
                out[r, row] = x[r * stride:r * stride + n]
            if q == steps:
                break
            s, e = offs[q], offs[q + 1]
            a, b = aa[s:e], bb[s:e]
            xa, xb = x[a], x[b]
            if weigh is not None:
                w = weigh(s, e, xa, xb)
                c = 1.0 - w
            x[a] = c * xa + w * xb
            if symmetric:  # an environment jump writes its own slot
                x[b] = c * xb + w * xa
        active = pending
    for r, state in enumerate(states):
        state.opinions = x[r * stride:r * stride + n].copy()
    return states
