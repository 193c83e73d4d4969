"""Tests for the event-driven stochastic simulator."""

import hashlib
import itertools
import struct
from dataclasses import replace

import numpy as np
import pytest

from gossipfield.agent_sim import (_BLOCK, _CHUNK, SimConfig, SimError,
                                   SimState, _run_batch, init_state, run,
                                   run_ends, run_with_state)
from gossipfield.kernels import (Atom, Atoms, BoundedConfidence, Bump,
                                 Constant, FiniteMixture, Gaussian, Grid,
                                 KernelError, KernelSpec, Uniform,
                                 draw_mixture, env_moment, make_env_sampler)
from gossipfield.measures import AtomicMeasure, GridMeasure1D


CONST_HALF = KernelSpec(alpha=1.0, internal=Constant(0.5))


def make_cfg(**kw):
    base = dict(n=100, kernel=CONST_HALF, initial=Uniform(0.0, 1.0),
                horizon=1.0, snapshot_times=(0.5, 1.0), seed=42)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# configuration and initial laws


def test_config_validation():
    with pytest.raises(SimError, match="two agents"):
        make_cfg(n=1)
    with pytest.raises(SimError):
        make_cfg(snapshot_times=(0.5, 2.0))
    with pytest.raises(SimError):
        make_cfg(snapshot_times=(1.0, 0.5))
    with pytest.raises(SimError, match="horizon"):
        make_cfg(horizon=-1.0, snapshot_times=())


def test_initial_law_validation():
    with pytest.raises(KernelError):
        Uniform(1.0, 1.0)
    with pytest.raises(KernelError):
        Atoms(AtomicMeasure([0.0], [0.5]))
    with pytest.raises(KernelError):
        Grid(GridMeasure1D(0, 1, np.array([0.2, 0.2])))


def test_initial_moments_are_exact():
    # a grid law is the piecewise-uniform density it is sampled from: on
    # (0, 2) with masses 1/4 and 3/4, m1 = 1/8 + 9/8 and m2 = 1/12 + 7/4
    grid = GridMeasure1D(0.0, 2.0, np.array([0.25, 0.75]))
    assert env_moment(Grid(grid), 1) == 1.25
    assert env_moment(Grid(grid), 2) == pytest.approx(11 / 6, rel=1e-15)
    atoms = AtomicMeasure.from_points([(-1.0, 0.5), (3.0, 0.5)])
    for k in range(1, 9):
        assert env_moment(Uniform(0.0, 10.0), k) == pytest.approx(
            10.0 ** k / (k + 1), rel=1e-15)
        assert env_moment(Atoms(atoms), k) == 0.5 * ((-1) ** k + 3 ** k)


def test_sample_initial_atom_frequencies():
    law = Atoms(AtomicMeasure.from_points([(0.0, 0.25), (1.0, 0.75)]))
    x = make_env_sampler(law)(np.random.default_rng(1), 8000)
    assert x.mean() == pytest.approx(0.75, abs=0.02)


# ---------------------------------------------------------------------------
# single updates


def run_from_start(**kw):
    """Run to the horizon; return the opinions at t = 0 and the final state."""
    snaps, state = run_with_state(make_cfg(snapshot_times=(0.0,), **kw))
    return snaps[0], state


def test_step_zero_weight_only_advances_clock():
    frozen = KernelSpec(alpha=1.0, internal=Constant(0.0))
    x0, s = run_from_start(n=3, kernel=frozen)
    np.testing.assert_array_equal(s.opinions, x0)
    assert s.t > 1.0
    assert s.update_count > 0


def test_step_full_weight_copies_opinion():
    copy = KernelSpec(alpha=1.0, internal=Constant(1.0))
    x0, s = run_from_start(n=2, horizon=5.0, kernel=copy)
    assert s.update_count > 0
    # with n=2 the activated agent adopts the other's opinion exactly
    assert s.opinions[0] == s.opinions[1]
    assert s.opinions[0] in x0


def test_step_symmetric_preserves_pair_sum():
    x0, s = run_from_start(n=50, horizon=4.0, symmetric=True, seed=5)
    assert s.update_count > 100
    assert s.opinions.sum() == pytest.approx(x0.sum(), abs=1e-9)


def test_state_needs_two_agents():
    with pytest.raises(SimError, match="two agents"):
        SimState(np.array([1.0]), 0.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# full runs


def test_run_deterministic_given_seed():
    cfg = make_cfg()
    a = run(cfg)
    b = run(cfg)
    assert a.shape == b.shape == (2, cfg.n)
    np.testing.assert_array_equal(a, b)


def test_run_writes_into_a_given_block():
    cfg = make_cfg(snapshot_times=(0.0, 0.5, 0.5, 1.0))
    block = np.full((4, cfg.n), np.nan)
    assert run(cfg, block) is block
    assert not np.isnan(block).any()
    np.testing.assert_array_equal(block, run(cfg))
    for bad in (np.empty((3, cfg.n)), np.empty((4, cfg.n), dtype=np.float32)):
        with pytest.raises(SimError, match="snapshot block"):
            run(cfg, bad)


def test_run_seed_changes_output():
    a = run(make_cfg(seed=1))
    b = run(make_cfg(seed=2))
    assert not np.array_equal(a[-1], b[-1])


def test_run_snapshot_count_and_normalization():
    cfg = make_cfg(snapshot_times=(0.0, 0.3, 0.9, 1.0))
    snaps = run(cfg)
    assert snaps.shape == (4, cfg.n)
    for x in snaps:
        assert AtomicMeasure.empirical(x).normalized


def test_run_hull_invariance():
    k = KernelSpec(alpha=0.5, internal=Gaussian(0.8, 2.0),
                   external=Constant(0.5), environment=Atom(12.0))
    cfg = make_cfg(kernel=k, horizon=5.0, snapshot_times=(1.0, 3.0, 5.0))
    for x in run(cfg):
        assert x.min() >= 0.0 - 1e-12
        assert x.max() <= 12.0 + 1e-12


def test_run_jump_count_statistics():
    n, tau = 500, 4.0
    cfg = make_cfg(n=n, horizon=tau, snapshot_times=(tau,), seed=9)
    _, state = run_with_state(cfg)
    mean = n * tau
    assert abs(state.update_count - mean) < 5 * np.sqrt(mean)
    assert state.t >= tau


def test_run_kernel_fast_paths_stay_in_hull():
    # every specialized inner-loop path: constant, distance-dependent,
    # mixture, and environment kernels
    for kernel in (CONST_HALF,
                   KernelSpec(alpha=1.0, internal=BoundedConfidence(0.5, 0.3)),
                   KernelSpec(alpha=1.0,
                              internal=FiniteMixture((0.2, 0.8), (0.5, 0.5))),
                   KernelSpec(alpha=0.5, internal=Constant(0.5),
                              external=Constant(0.5),
                              environment=Atom(0.5))):
        cfg = make_cfg(n=20, kernel=kernel, horizon=0.8,
                       snapshot_times=(0.8,), seed=123)
        got = run(cfg)[0]
        assert got.shape == (20,)
        assert got.min() >= -1e-12
        assert got.max() <= 1.0 + 1e-12


# Digests of alpha = 1 runs with distance-only weight laws, recorded before
# the per-jump draws moved into per-chunk batches. These runs draw only the
# waiting times and the two agent indices, so their streams must not move;
# the digests are the bit-identity oracle for any rewrite of the jump loop.
# Each run crosses one chunk boundary (18009 jumps).
STREAM_PINS = [
    (Constant(0.5), False,
     "59f09ea65d63fdbb9c73acb3876a2301266e1456a09f035e91e66e61b2ef144e"),
    (Constant(0.3), False,
     "cd535a689267222dd3b680e17b9331ba74330e3c037bb8ffb8bf6e7009a7b6ae"),
    (BoundedConfidence(0.5, 0.3), False,
     "dca97650ad9b35d89640975d6272d78c0b3e0cca586659241ba35fc9bef12530"),
    (Gaussian(0.6, 0.4), False,
     "c27c5671805be9ce2b4ed4468f69215d80e01beb70b453e06b1116630201ee35"),
    (Constant(0.5), True,
     "0ad9211fbcfb6d4ee22858d526ee78a7ecd5f8fc9e86b970d70f9be2434af297"),
]


def stream_digest(kernel, symmetric=False):
    """Jump count and sha256 of a run of 60 agents to t = 300: its
    snapshots, final opinions, clock and jump count."""
    cfg = make_cfg(n=60, kernel=kernel, horizon=300.0,
                   snapshot_times=(0.0, 0.5, 150.0, 300.0), seed=2024,
                   symmetric=symmetric)
    snaps, state = run_with_state(cfg)
    h = hashlib.sha256()
    for t, x in zip(cfg.snapshot_times, snaps):
        h.update(struct.pack("<d", t))
        h.update(np.ascontiguousarray(x, "<f8").tobytes())
    h.update(np.ascontiguousarray(state.opinions, "<f8").tobytes())
    h.update(struct.pack("<dq", state.t, state.update_count))
    return state.update_count, h.hexdigest()


@pytest.mark.parametrize("law, symmetric, expected", STREAM_PINS, ids=[
    "constant_half", "constant_0.3", "bounded_confidence", "gaussian",
    "symmetric_constant"])
def test_alpha_one_streams_are_pinned(law, symmetric, expected):
    count, digest = stream_digest(KernelSpec(alpha=1.0, internal=law),
                                  symmetric)
    assert count == 18009
    assert digest == expected


# Digests of runs with an environment or a mixture law, recorded from the
# jump-by-jump loop before the jumps were applied in conflict-free runs.
# Each crosses one chunk boundary.
MIXED_PINS = [
    (KernelSpec(alpha=0.5, internal=Constant(0.5), external=Constant(0.5),
                environment=Bump()), 17960,
     "3f3fa7163b55b2871904dbfd983b632c1a5cece4facb4949c361788aea3ae61b"),
    (KernelSpec(alpha=0.3, internal=BoundedConfidence(0.5, 0.3),
                external=FiniteMixture((0.2, 0.7), (0.4, 0.6)),
                environment=Uniform(0.2, 0.9)), 17960,
     "18bcfbce5a0dc18833caa3a4c3252df717d2d052a48c2ead593788053b10d3cd"),
    (KernelSpec(alpha=1.0,
                internal=FiniteMixture((0.1, 0.5, 0.9), (0.3, 0.3, 0.4))),
     17904,
     "8ca7f7524d7d05f465c087eada2ae1b036a8b457a68da9173cb684970b0f322c"),
]


@pytest.mark.parametrize("kernel, count, expected", MIXED_PINS, ids=[
    "bump_environment", "confidence_mixture_uniform", "mixture"])
def test_mixed_streams_are_pinned(kernel, count, expected):
    assert stream_digest(kernel) == (count, expected)


# ---------------------------------------------------------------------------
# the conflict-free schedule


def test_run_ends_are_conflict_free_and_maximal():
    # against a brute-force scan from every start: small n makes conflicts
    # dense; environment jumps observe a slot of their own past the agents;
    # n = 1000 fills a whole block
    rng = np.random.default_rng(11)
    for (n, m), allow_self, writes_b, env in itertools.product(
            ((2, 200), (3, 200), (5, 200), (50, 200), (1000, _BLOCK)),
            (False, True), (False, True), (False, True)):
        a = rng.integers(0, n, m)
        if allow_self:
            b = rng.integers(0, n, m)
        else:
            b = rng.integers(0, n - 1, m)
            b += b >= a
        if env:
            b = np.where(rng.random(m) < 0.5, b, n + np.arange(m))
        ends = run_ends(a, b, writes_b)
        for s in range(m):
            written, e = set(), s
            while e < m and not {a[e], b[e]} & written:
                written.add(a[e])
                if writes_b:
                    written.add(b[e])
                e += 1
            assert ends[s] == e, (n, allow_self, writes_b, env, s)


def sequential(cfg):
    """The jump-by-jump oracle: the simulator's draws, applied one jump at
    a time to a list of floats; a snapshot is taken before the first jump
    past its time. Returns the snapshots and the final opinions, clock and
    jump count."""
    state = init_state(cfg)
    k, rng, n = cfg.kernel, state.rng, cfg.n
    mixed = k.alpha < 1.0
    sampler = make_env_sampler(k.environment) if mixed else None

    def weight(law, draws, i, d):
        if isinstance(law, Constant):
            return law.omega
        if isinstance(law, BoundedConfidence):
            return law.omega0 if d <= law.radius else 0.0
        if isinstance(law, Gaussian):
            return law.omega0 * np.exp(-(d * d) / law.sigma ** 2)
        return draws[i]

    x = state.opinions.tolist()
    snaps, ptr, t, count, done = [], 0, 0.0, 0, False
    while not done:
        dts = rng.exponential(1.0 / n, _CHUNK)
        clock = np.cumsum(np.concatenate(([t], dts)))[1:]
        end = int(np.searchsorted(clock, cfg.horizon, side="right"))
        done = end < _CHUNK
        t = float(clock[min(end, _CHUNK - 1)])
        aa = rng.integers(0, n, _CHUNK)
        if cfg.allow_self:
            bb = rng.integers(0, n, _CHUNK)
        else:
            bb = rng.integers(0, n - 1, _CHUNK)
            bb += bb >= aa
        coins = rng.random(_CHUNK) < k.alpha if mixed else None
        signals = sampler(rng, _CHUNK) if mixed else None
        iw = ew = None
        if isinstance(k.internal, FiniteMixture):
            iw = draw_mixture(k.internal, rng, _CHUNK)
        if mixed and isinstance(k.external, FiniteMixture):
            ew = draw_mixture(k.external, rng, _CHUNK)
        for i in range(end):
            while (ptr < len(cfg.snapshot_times)
                   and cfg.snapshot_times[ptr] < clock[i]):
                snaps.append((cfg.snapshot_times[ptr], np.array(x)))
                ptr += 1
            a = int(aa[i])
            xa = x[a]
            if not mixed or coins[i]:
                b = int(bb[i])
                xb = x[b]
                w = weight(k.internal, iw, i, abs(xa - xb))
                x[a] = (1.0 - w) * xa + w * xb
                if cfg.symmetric:
                    x[b] = (1.0 - w) * xb + w * xa
            else:
                e = float(signals[i])
                u = weight(k.external, ew, i, abs(xa - e))
                x[a] = (1.0 - u) * xa + u * e
        count += end
    snaps += [(s, np.array(x)) for s in cfg.snapshot_times[ptr:]]
    return snaps, np.array(x), t, count


ORACLE_KERNELS = [
    KernelSpec(alpha=1.0, internal=Constant(0.5)),
    KernelSpec(alpha=1.0, internal=BoundedConfidence(0.5, 0.3)),
    KernelSpec(alpha=1.0, internal=Gaussian(0.6, 0.4)),
    KernelSpec(alpha=1.0, internal=FiniteMixture((0.1, 0.9), (0.5, 0.5))),
    KernelSpec(alpha=0.5, internal=Constant(0.5), external=Constant(0.5),
               environment=Bump()),
    KernelSpec(alpha=0.5, internal=Constant(0.3), external=Constant(0.8),
               environment=Atom(0.25)),
    KernelSpec(alpha=0.4, internal=BoundedConfidence(0.5, 0.3),
               external=FiniteMixture((0.2, 0.7), (0.4, 0.6)),
               environment=Uniform(0.2, 0.9)),
    KernelSpec(alpha=0.6, internal=FiniteMixture((0.2, 0.7), (0.5, 0.5)),
               external=Gaussian(0.5, 0.2), environment=Uniform(-1, 2)),
]


def assert_matches_sequential(cfg):
    snaps, state = run_with_state(cfg)
    want, x, t, count = sequential(cfg)
    assert list(cfg.snapshot_times) == [s for s, _ in want]
    assert len(snaps) == len(want)
    for got, (_, y) in zip(snaps, want):
        assert got.tobytes() == y.tobytes()
    assert state.opinions.tobytes() == x.tobytes()
    assert (state.t, state.update_count) == (t, count)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=[
    "constant", "confidence", "gaussian", "mixture", "bump_environment",
    "two_constants", "confidence_mixture", "mixture_gaussian"])
def test_runs_match_the_sequential_loop(kernel):
    for n, allow_self, symmetric in itertools.product(
            (2, 3, 5, 50), (False, True), (False, True)):
        assert_matches_sequential(make_cfg(
            n=n, kernel=kernel, horizon=300.0 / n,
            snapshot_times=(0.0, 1.0 / n, 150.0 / n, 150.0 / n, 300.0 / n),
            seed=n, allow_self=allow_self, symmetric=symmetric))


@pytest.mark.parametrize("kernel", ORACLE_KERNELS[::4], ids=[
    "constant", "bump_environment"])
def test_runs_match_the_sequential_loop_at_chunk_boundaries(kernel):
    # snapshots at the clock of the first chunk's last jump and of the one
    # before it, so one cut falls at the chunk's end and one just before
    n = 5
    rng = np.random.default_rng(7)
    make_env_sampler(Uniform(0.0, 1.0))(rng, n)
    clock = np.cumsum(np.concatenate(([0.0], rng.exponential(1.0 / n,
                                                             _CHUNK))))[1:]
    times = (float(clock[-2]), float(clock[-1]))
    for symmetric in (False, True):
        assert_matches_sequential(make_cfg(
            n=n, kernel=kernel, horizon=times[-1] + 1.0, snapshot_times=times,
            seed=7, allow_self=True, symmetric=symmetric))
    # tau = 0: no jump is applied, and the clock is the first jump's
    assert_matches_sequential(make_cfg(
        n=n, kernel=kernel, horizon=0.0, snapshot_times=(0.0,), seed=7))


def test_lockstep_batches_match_their_replicas_run_alone():
    # at n = 1000 and horizon 16.4 the _CHUNK-th jump of seeds 0 and 1
    # comes before the horizon and that of seed 7 after it, so the batches
    # of two and three hold replicas that run for two chunks and one that
    # ends in its first; the snapshot at 16.3 falls in the second chunk of
    # seeds 0 and 1
    seeds = (0, 7, 1)
    for kernel, allow_self, symmetric in itertools.product(
            ORACLE_KERNELS, (False, True), (False, True)):
        cfg = make_cfg(n=1000, kernel=kernel, horizon=16.4,
                       snapshot_times=(0.0, 8.0, 8.0, 16.3, 16.4),
                       allow_self=allow_self, symmetric=symmetric)
        alone = [run_with_state(replace(cfg, seed=seed)) for seed in seeds]
        assert [s.update_count > _CHUNK for _, s in alone] == [True, False,
                                                               True]
        for size in (1, 2, 3):
            block = np.empty((size, 5, cfg.n))
            states = _run_batch(cfg, seeds[:size], block)
            for got, state, (snaps, want) in zip(block, states, alone):
                assert got.tobytes() == snaps.tobytes()
                assert state.opinions.tobytes() == want.opinions.tobytes()
                assert (state.t, state.update_count) == (want.t,
                                                         want.update_count)


def test_run_writes_a_batch_into_a_given_block():
    cfg = make_cfg(snapshot_times=(0.0, 0.5, 1.0))
    block = np.full((2, 3, cfg.n), np.nan)
    assert run(cfg, block, seeds=(3, 4)) is block
    for got, seed in zip(block, (3, 4)):
        np.testing.assert_array_equal(got, run(replace(cfg, seed=seed)))
    np.testing.assert_array_equal(run(cfg, seeds=(3, 4)), block)
    with pytest.raises(SimError, match="snapshot block"):
        run(cfg, np.empty((3, 3, cfg.n)), seeds=(3, 4))


def test_environment_branch_mean_follows_closed_form():
    # alpha = 1/2, weights 1/2, bump environment (mean 3), uniform start on
    # (0, 10): d/dt m1 = (1-alpha) upsilon (3 - m1), so the mean is
    # 3 + 2 exp(-t/4) (criterion 03). The empirical mean's standard error
    # is taken across independent replicas, because the agents of one run
    # are not independent.
    kernel = KernelSpec(alpha=0.5, internal=Constant(0.5),
                        external=Constant(0.5), environment=Bump())
    times = tuple(float(t) for t in range(9))
    means = np.array([
        [x.mean() for x in run(make_cfg(
            n=20_000, kernel=kernel, initial=Uniform(0.0, 10.0),
            horizon=8.0, snapshot_times=times, seed=seed))]
        for seed in range(20)])
    expect = 3.0 + 2.0 * np.exp(-np.array(times) / 4.0)
    se = means.std(axis=0, ddof=1) / np.sqrt(len(means))
    assert np.all(np.abs(means.mean(axis=0) - expect) <= 4.0 * se)


def test_mixture_dispersion_decays_at_moment_system_rate():
    # with alpha = 1 the second-order moment equation gives
    # d/dt Var = -E[2 W (1-W)] Var; for W = 0.1 w.p. 1/4 and 0.5 w.p. 3/4
    # that rate is 0.42 (0.18 or 0.5 if one atom were always drawn)
    law = FiniteMixture((0.1, 0.5), (0.25, 0.75))
    snaps, state = run_with_state(make_cfg(
        n=20_000, kernel=KernelSpec(alpha=1.0, internal=law),
        initial=Uniform(0.0, 10.0), horizon=5.0, snapshot_times=(0.0,),
        seed=4))
    v0 = np.var(snaps[0])
    rate = -np.log(np.var(state.opinions) / v0) / 5.0
    assert rate == pytest.approx(0.42, abs=0.02)


def test_dispersion_decays_for_averaging_kernel():
    wins = 0
    for seed in range(20):
        cfg = make_cfg(n=200, horizon=5.0, snapshot_times=(5.0,), seed=seed)
        _, state = run_with_state(cfg)
        x0 = make_env_sampler(cfg.initial)(np.random.default_rng(seed), cfg.n)
        d0 = float(np.var(x0))
        wins += np.var(state.opinions) < d0
    assert wins >= 18  # exponential decay; allow rare noise
