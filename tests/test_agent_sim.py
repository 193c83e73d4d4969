"""Tests for the event-driven stochastic simulator."""

import hashlib
import struct

import numpy as np
import pytest

from gossipfield.agent_sim import (InitAtoms, InitGrid, InitUniform,
                                   SimConfig, SimError, SimState, dispersion,
                                   init_state, initial_support, run,
                                   run_with_state, sample_initial)
from gossipfield.kernels import (BoundedConfidence, Constant, EnvAtom,
                                 EnvBump, FiniteMixture, Gaussian, KernelSpec)
from gossipfield.measures import AtomicMeasure, GridMeasure1D


CONST_HALF = KernelSpec(alpha=1.0, internal=Constant(0.5))


def make_cfg(**kw):
    base = dict(n=100, kernel=CONST_HALF, initial=InitUniform(0.0, 1.0),
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
    with pytest.raises(SimError):
        InitUniform(1.0, 1.0)
    with pytest.raises(SimError):
        InitAtoms(AtomicMeasure([0.0], [0.5]))
    with pytest.raises(SimError):
        InitGrid(GridMeasure1D(0, 1, np.array([0.2, 0.2])))


def test_sample_initial_supports():
    rng = np.random.default_rng(0)
    for law in (InitUniform(2.0, 5.0),
                InitAtoms(AtomicMeasure.from_points([(2.0, 0.5), (5.0, 0.5)])),
                InitGrid(GridMeasure1D.uniform(2.0, 5.0, 16))):
        x = sample_initial(law, 300, rng)
        lo, hi = initial_support(law)
        assert x.min() >= lo and x.max() <= hi
        assert x.shape == (300,)


def test_sample_initial_atom_frequencies():
    law = InitAtoms(AtomicMeasure.from_points([(0.0, 0.25), (1.0, 0.75)]))
    x = sample_initial(law, 8000, np.random.default_rng(1))
    assert x.mean() == pytest.approx(0.75, abs=0.02)


# ---------------------------------------------------------------------------
# single updates


def run_from_start(**kw):
    """Run to the horizon; return the opinions at t = 0 and the final state."""
    snaps, state = run_with_state(make_cfg(snapshot_times=(0.0,), **kw))
    return snaps[0][1].positions[:, 0], state


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
    assert len(a) == len(b) == 2
    for (ta, ma), (tb, mb) in zip(a, b):
        assert ta == tb
        np.testing.assert_array_equal(ma.positions, mb.positions)
        np.testing.assert_array_equal(ma.weights, mb.weights)


def test_run_seed_changes_output():
    a = run(make_cfg(seed=1))
    b = run(make_cfg(seed=2))
    assert not np.array_equal(a[-1][1].positions, b[-1][1].positions)


def test_run_snapshot_count_and_normalization():
    cfg = make_cfg(snapshot_times=(0.0, 0.3, 0.9, 1.0))
    snaps = run(cfg)
    assert [t for t, _ in snaps] == [0.0, 0.3, 0.9, 1.0]
    for _, m in snaps:
        assert m.normalized


def test_run_hull_invariance():
    k = KernelSpec(alpha=0.5, internal=Gaussian(0.8, 2.0),
                   external=Constant(0.5), environment=EnvAtom(12.0))
    cfg = make_cfg(kernel=k, horizon=5.0, snapshot_times=(1.0, 3.0, 5.0))
    for _, m in run(cfg):
        x = m.positions[:, 0]
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
                              environment=EnvAtom(0.5))):
        cfg = make_cfg(n=20, kernel=kernel, horizon=0.8,
                       snapshot_times=(0.8,), seed=123)
        got = run(cfg)[0][1].positions[:, 0]
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


@pytest.mark.parametrize("law, symmetric, expected", STREAM_PINS, ids=[
    "constant_half", "constant_0.3", "bounded_confidence", "gaussian",
    "symmetric_constant"])
def test_alpha_one_streams_are_pinned(law, symmetric, expected):
    cfg = make_cfg(n=60, kernel=KernelSpec(alpha=1.0, internal=law),
                   horizon=300.0, snapshot_times=(0.0, 0.5, 150.0, 300.0),
                   seed=2024, symmetric=symmetric)
    snaps, state = run_with_state(cfg)
    h = hashlib.sha256()
    for t, m in snaps:
        h.update(struct.pack("<d", t))
        h.update(np.ascontiguousarray(m.positions[:, 0], "<f8").tobytes())
    h.update(np.ascontiguousarray(state.opinions, "<f8").tobytes())
    h.update(struct.pack("<dq", state.t, state.update_count))
    assert state.update_count == 18009
    assert h.hexdigest() == expected


def test_environment_branch_mean_follows_closed_form():
    # alpha = 1/2, weights 1/2, bump environment (mean 3), uniform start on
    # (0, 10): d/dt m1 = (1-alpha) upsilon (3 - m1), so the mean is
    # 3 + 2 exp(-t/4) (criterion 03). The empirical mean's standard error
    # is taken across independent replicas, because the agents of one run
    # are not independent.
    kernel = KernelSpec(alpha=0.5, internal=Constant(0.5),
                        external=Constant(0.5), environment=EnvBump())
    times = tuple(float(t) for t in range(9))
    means = np.array([
        [m.positions[:, 0].mean() for _, m in run(make_cfg(
            n=20_000, kernel=kernel, initial=InitUniform(0.0, 10.0),
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
        initial=InitUniform(0.0, 10.0), horizon=5.0, snapshot_times=(0.0,),
        seed=4))
    v0 = np.var(snaps[0][1].positions[:, 0])
    rate = -np.log(dispersion(state) / v0) / 5.0
    assert rate == pytest.approx(0.42, abs=0.02)


def test_dispersion_examples():
    s = SimState(np.array([1.0, 1.0, 1.0]), 0.0, np.random.default_rng(0))
    assert dispersion(s) == 0.0
    s2 = SimState(np.array([0.0, 2.0]), 0.0, np.random.default_rng(0))
    assert dispersion(s2) == pytest.approx(1.0)


def test_dispersion_decays_for_averaging_kernel():
    wins = 0
    for seed in range(20):
        cfg = make_cfg(n=200, horizon=5.0, snapshot_times=(5.0,), seed=seed)
        _, state = run_with_state(cfg)
        x0 = sample_initial(cfg.initial, cfg.n, np.random.default_rng(seed))
        d0 = float(np.var(x0))
        wins += dispersion(state) < d0
    assert wins >= 18  # exponential decay; allow rare noise
