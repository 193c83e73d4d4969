"""Tests for the concentration harness."""

import concurrent.futures
import multiprocessing

import numpy as np
import pytest

from gossipfield import experiments
from gossipfield.agent_sim import SimConfig, run
from gossipfield.experiments import (_REF_GRIDS, ConcentrationConfig,
                                     DeviationTable, ExperimentError,
                                     _reference, _replica_seed, initial_grid,
                                     run_concentration, tail_rates)
from gossipfield.kernels import (Atom, Atoms, Bump, Constant, Gaussian,
                                 Grid, KernelSpec, Uniform, env_moment)
from gossipfield.meanfield import SolverError
from gossipfield.measures import (AtomicMeasure, GridMeasure1D, moment,
                                  wasserstein1_1d)

GAUSS = KernelSpec(alpha=1.0, internal=Gaussian(0.5, 20.0))


def small_cfg(**kw):
    base = dict(kernel=GAUSS, initial=Uniform(0.0, 10.0), tau=1.0,
                sample_times=(0.5, 1.0), n_list=(50, 200), replicas=20,
                base_seed=7)
    base.update(kw)
    return ConcentrationConfig(**base)


def test_config_validation():
    with pytest.raises(ExperimentError):
        small_cfg(replicas=5)
    with pytest.raises(ExperimentError):
        small_cfg(sample_times=(0.5, 2.0))
    with pytest.raises(ExperimentError, match="sorted"):
        small_cfg(sample_times=(1.0, 0.5))
    with pytest.raises(ExperimentError, match="tau"):
        small_cfg(tau=-1.0)
    with pytest.raises(ExperimentError, match="n_list"):
        small_cfg(n_list=(1, 20))
    with pytest.raises(ExperimentError, match="eps"):
        small_cfg(eps_list=(0.1, 0.0))


def test_default_sample_times():
    cfg = ConcentrationConfig(kernel=GAUSS, initial=Uniform(0, 1),
                              tau=5.0, replicas=20)
    assert len(cfg.sample_times) == 20
    assert cfg.sample_times[0] == 0.0
    assert cfg.sample_times[-1] == 5.0


@pytest.mark.parametrize("m", [101, 437, 1001])
def test_initial_grid_law_keeps_its_density(m):
    # a coarse grid law on a solver grid whose edges miss its own, and the
    # bump: each solver cell takes its overlap of the density the simulator
    # samples, so the moments agree to O(h^2), not only to the coarse cell
    # width
    grid = Grid(GridMeasure1D(0.0, 10.0,
                              np.array([1.0, 2.0, 3.0, 4.0])).normalize())
    for law in (grid, Bump()):
        g = initial_grid(law, -0.3, 10.7, m)
        for k in (1, 2):
            assert moment(g, k) == pytest.approx(env_moment(law, k),
                                                 abs=g.h ** 2), (law, k)


@pytest.mark.parametrize("m", [100, 400, 1000])
def test_initial_grid_atoms_keep_their_mean(m):
    # each atom is split between the two centres around it, on the default
    # window, which pads for the atoms so that the end ones sit on the end
    # centres; a lone atom's window is the environment's hull
    atoms = Atoms(AtomicMeasure.from_points([(1.0, 0.3), (2.5, 0.3),
                                             (4.0, 0.4)]))
    kernel = KernelSpec(alpha=1.0, internal=Constant(0.5))
    env_kernel = KernelSpec(alpha=0.5, internal=Constant(0.5),
                            external=Constant(0.5), environment=atoms)
    for law, k in ((atoms, kernel), (Atom(2.2), env_kernel)):
        g = initial_grid(law, *experiments.solver_domain(k, law, m), m)
        assert moment(g, 1) == pytest.approx(env_moment(law, 1),
                                             abs=1e-12), law


def test_initial_grid_rejects_atoms_outside_the_centres():
    # atoms the window's first and last cell centres do not reach would be
    # clipped onto them, which moves the start's mean from 2.6 to 3.515
    law = Atoms(AtomicMeasure.from_points([(-3.0, 0.3), (5.0, 0.7)]))
    with pytest.raises(SolverError, match=r"hull \[-3, 5\] must lie within "
                       r"\[0.05, 9.95\]"):
        initial_grid(law, 0.0, 10.0, 100)


@pytest.mark.parametrize("initial, kernel", [
    (Bump(), KernelSpec(alpha=1.0, internal=Constant(0.5))),
    (Atom(5.0), KernelSpec(alpha=0.5, internal=Constant(0.5),
                           external=Constant(0.3),
                           environment=Uniform(0.0, 10.0))),
], ids=["bump_start", "atom_start_in_an_environment"])
def test_every_law_starts_a_concentration_run(initial, kernel):
    # the reference starts from the law the simulator draws, and passes its
    # gate on the first grid of the ladder or a finer one
    tbl = run_concentration(small_cfg(initial=initial, kernel=kernel))
    assert len(tbl.rows) == 2 * 20
    assert min(d for _, _, d in tbl.rows) > 0.0


def test_deterministic_given_base_seed():
    cfg = small_cfg(n_list=(100,), replicas=20)
    a = run_concentration(cfg)
    b = run_concentration(cfg)
    assert a.rows == b.rows


def test_rows_bounded_by_domain_diameter():
    tbl = run_concentration(small_cfg())
    assert len(tbl.rows) == 2 * 20
    for n, r, d in tbl.rows:
        assert 0.0 <= d <= 10.0


def test_initial_sampling_noise_scales_like_inverse_sqrt_n():
    # at t = 0 the deviation is pure sampling noise of n iid uniforms;
    # its median shrinks like 1/sqrt(n)
    cfg = small_cfg(kernel=GAUSS, tau=0.0, sample_times=(0.0,),
                    n_list=(100, 400, 1600), replicas=60)
    tbl = run_concentration(cfg)
    med = {n: np.median(tbl.for_n(n)) for n in cfg.n_list}
    r1 = med[100] / med[400]
    r2 = med[400] / med[1600]
    assert 1.5 < r1 < 2.7
    assert 1.5 < r2 < 2.7


@pytest.mark.parametrize("threads", [0, -2])
def test_threads_below_one_are_an_experiment_error(threads):
    with pytest.raises(ExperimentError, match="threads must be at least 1"):
        run_concentration(small_cfg(), threads=threads)


def test_threads_do_not_change_results():
    cfg = small_cfg(n_list=(80,), replicas=20)
    a = run_concentration(cfg, threads=1)
    b = run_concentration(cfg, threads=4)
    assert a.rows == b.rows


@pytest.mark.parametrize("threads", [1, 2])
def test_batches_do_not_change_results(monkeypatch, threads):
    # 23 replicas: the default batches leave a short last one; with at
    # most 6000 bytes of snapshots, 2880 per replica at n = 120 and 1200 at
    # n = 50, the batches hold 2 and 5 replicas
    cfg = small_cfg(n_list=(50, 120), replicas=23,
                    sample_times=(0.0, 0.5, 1.0),
                    kernel=KernelSpec(alpha=1.0, internal=Constant(0.5)))
    rows = run_concentration(cfg, threads=threads).rows
    assert [len(r) for n, r in experiments._batches(cfg)] == [10, 10, 3] * 2
    monkeypatch.setattr(experiments, "_BATCH", 1)
    assert run_concentration(cfg, threads=threads).rows == rows
    monkeypatch.setattr(experiments, "_BATCH", 10)
    monkeypatch.setattr(experiments, "_BATCH_BYTES", 6000)
    assert [len(r) for n, r in experiments._batches(cfg)] == \
        [2] * 11 + [1] + [5] * 4 + [3]
    assert run_concentration(cfg, threads=threads).rows == rows


def _fresh_run(cfg):
    """run_concentration in a new interpreter, free of any state an earlier
    run left in this one."""
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as ex:
        return ex.submit(run_concentration, cfg).result()


def test_serial_runs_share_no_state():
    first = small_cfg(n_list=(40,), replicas=20,
                      kernel=KernelSpec(alpha=1.0, internal=Constant(0.5)))
    second = small_cfg(n_list=(60,), replicas=20, tau=0.5,
                       sample_times=(0.25, 0.5), base_seed=3)
    a = run_concentration(first)
    b = run_concentration(second)
    assert a.rows == _fresh_run(first).rows
    assert b.rows == _fresh_run(second).rows


# float.hex of every D of a small run, (n, replica) ordered, against the
# reference snapshots read as densities, through the closed form of
# wasserstein1_rows; recorded with the reference on the ladder's first
# grid, where the run passes its gate; re-recorded when the weight-1/2
# fold moved into the spectrum, which moved 23 of the 40 by at most 9.7e-15
# relative
PINNED_D = """
    0x1.b9348687c530fp-1 0x1.b97c6d0987544p-1 0x1.86033888db1dap-2
    0x1.1a9c5fe8833b0p-2 0x1.c7e49e84b4aa2p-2 0x1.4d930cf924f2dp-2
    0x1.8db7974eb292cp-2 0x1.1db6859143339p-1 0x1.3c90e4ec44c1cp-1
    0x1.4797255867688p-1 0x1.4dc6da78b026fp-2 0x1.c632a7e93358ep-1
    0x1.10e15a84fcfa0p-1 0x1.6411a7ddf195ep-2 0x1.0390e9c9e13b8p-1
    0x1.1995e1879eca2p-2 0x1.2b4f7274c5d0dp-1 0x1.14ca029b82e04p+0
    0x1.7b3573e63056ep-1 0x1.3683c49b0a51dp-1 0x1.90f899144ee60p-3
    0x1.792821e9db089p-2 0x1.58cfbb8090573p-3 0x1.2ea9cdac7314dp-3
    0x1.8fa0083dca0a5p-3 0x1.4dcde1e8424fcp-3 0x1.aac436d3c4905p-3
    0x1.4693e11bf7829p-3 0x1.0538701099c97p-2 0x1.07b7b09db303dp-2
    0x1.17cde051c81dcp-3 0x1.d2f6e8006daa2p-2 0x1.2d347acd0a818p-3
    0x1.0da6d07b42cc3p-2 0x1.5a8a5b7f66df1p-3 0x1.718aa2fd2afd2p-2
    0x1.d9caf6aff7180p-3 0x1.a49eb269db972p-3 0x1.42aa55f1b0bf4p-2
    0x1.9e98b48ae6330p-3
""".split()


def pinned_cfg():
    return small_cfg(kernel=KernelSpec(alpha=1.0, internal=Constant(0.5)),
                     sample_times=(0.0, 0.5, 1.0), n_list=(200, 60),
                     base_seed=11)


@pytest.mark.parametrize("threads", [1, 2])
def test_deviations_are_pinned(threads):
    rows = run_concentration(pinned_cfg(), threads=threads).rows
    assert [(n, r) for n, r, _ in rows] == [
        (n, r) for n in (60, 200) for r in range(20)]
    assert [d.hex() for _, _, d in rows] == PINNED_D


def test_pinned_deviations_are_w1_to_the_density():
    # rebuild three replicas apart from the replica phase: D is the largest
    # W1, taken by the merge, between a snapshot and the reference density
    cfg = pinned_cfg()
    reference = _reference(cfg, _REF_GRIDS[0])
    for n, replica, index in ((60, 0, 0), (60, 13, 13), (200, 7, 27)):
        sim = SimConfig(n=n, kernel=cfg.kernel, initial=cfg.initial,
                        horizon=cfg.tau, snapshot_times=cfg.sample_times,
                        seed=_replica_seed(cfg.base_seed, n, replica),
                        allow_self=True)
        d = max(wasserstein1_1d(AtomicMeasure.empirical(x), g)
                for x, (_, g) in zip(run(sim), reference))
        assert float.fromhex(PINNED_D[index]) == pytest.approx(d, rel=1e-10)


def spy_grids(monkeypatch):
    """The grid of every reference solve, in call order."""
    grids = []

    def spy(cfg, m, *args):
        grids.append(m)
        return _reference(cfg, m, *args)

    monkeypatch.setattr(experiments, "_reference", spy)
    return grids


def test_coarse_reference_fails_the_refinement_gate(monkeypatch):
    monkeypatch.setattr(experiments, "_REF_GRIDS", (16,))
    with pytest.raises(ExperimentError,
                       match=r"space [^,]+, time [^)]+\) of the reference "
                             r"at m = 16,"):
        run_concentration(small_cfg())


def test_default_reference_passes_the_refinement_gate(monkeypatch):
    # the reference and its two refinement solves at half its grid: the
    # first rung of the ladder passes
    grids = spy_grids(monkeypatch)
    assert len(run_concentration(small_cfg()).rows) == 2 * 20
    assert grids == [_REF_GRIDS[0], _REF_GRIDS[0] // 2, _REF_GRIDS[0] // 2]


def test_a_failed_rung_leaves_no_trace_in_the_table(monkeypatch):
    monkeypatch.setattr(experiments, "_REF_GRIDS", (500,))
    single = run_concentration(small_cfg()).rows
    monkeypatch.setattr(experiments, "_REF_GRIDS", (16, 500))
    grids = spy_grids(monkeypatch)
    assert run_concentration(small_cfg()).rows == single
    assert grids == [16, 8, 8, 500, 250, 250]


def test_tail_fit_recovers_planted_rate():
    # P(D >= 1) = e^{-rate n} with rate = ln(2)/100, so the tails are the
    # exact dyadic fractions 1/2, 1/4, 1/8, 1/16 at R = 32 replicas
    rate = np.log(2.0) / 100.0
    rows = []
    R = 32
    for n in (100, 200, 300, 400):
        k = int(round(np.exp(-rate * n) * R))
        ds = np.concatenate([np.full(k, 2.0), np.full(R - k, 0.5)])
        rows += [(n, i, float(d)) for i, d in enumerate(ds)]
    tbl = DeviationTable(tuple(rows))
    points, slope, stderr = tail_rates(tbl, eps=1.0)
    assert slope == pytest.approx(-rate, abs=1e-6)
    assert stderr == pytest.approx(0.0, abs=1e-9)


def test_tail_fit_through_two_points_has_no_stderr():
    # two usable n fit the line exactly, with no degree of freedom left to
    # estimate its error: slope + 2 stderr < 0 must not reduce to a sign
    rows = tuple((n, i, 2.0 if i < k else 0.5)
                 for n, k in ((100, 16), (200, 8)) for i in range(32))
    points, slope, stderr = tail_rates(DeviationTable(rows), eps=1.0)
    assert points == [(100, 0.5), (200, 0.25)]
    assert slope == pytest.approx(-np.log(2.0) / 100.0)
    assert np.isnan(stderr)


def test_tail_fit_degenerate_input():
    rows = tuple((n, i, 0.3) for n in (100, 200) for i in range(30))
    tbl = DeviationTable(rows)
    with pytest.raises(ExperimentError, match="eps outside resolvable range"):
        tail_rates(tbl, eps=1.0)


def test_replica_order_does_not_change_quantiles():
    tbl = run_concentration(small_cfg(n_list=(60,), replicas=24))
    d = tbl.for_n(60)
    shuffled = np.random.default_rng(3).permutation(d)
    assert np.quantile(d, [0.25, 0.5, 0.75]) == pytest.approx(
        np.quantile(shuffled, [0.25, 0.5, 0.75]))
