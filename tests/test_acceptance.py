"""Acceptance gate: one test per release criterion, numbered 01-11.

Each test is the criterion stated executably, at the stated tolerances;
`pytest -v` prints one pass/fail line per criterion. Shared long runs are
module-scoped fixtures so the gate stays desk-scale.
"""

import time

import numpy as np
import pytest

from gossipfield.agent_sim import SimConfig, run_with_state
from gossipfield.cli import dispatch, parse_config
from gossipfield.experiments import ConcentrationConfig, run_concentration, \
    tail_rates
from gossipfield.kernels import (Atom, BoundedConfidence, Bump, Constant,
                                 Gaussian, KernelSpec, Uniform, env_moment)
from gossipfield.meanfield import SolverConfig, apply_F, integrate
from gossipfield.measures import (AtomicMeasure, GridMeasure1D,
                                  detect_clusters, moment, wasserstein1_1d)
from gossipfield.moments import (MomentParams, integrate_moments,
                                 limit_moments)
from lp_oracle import wasserstein1_oracle

CONST_HALF = KernelSpec(alpha=1.0, internal=Constant(0.5))
DEFFUANT = KernelSpec(alpha=1.0, internal=BoundedConfidence(0.5, 1.0))
ENV_KERNEL = KernelSpec(alpha=0.5, internal=Constant(0.5),
                        external=Constant(0.5), environment=Bump())


@pytest.fixture(scope="module")
def env_benchmark():
    """Mixed internal/environment run on (0,10), snapshots each unit time."""
    g0 = GridMeasure1D.uniform(0.0, 10.0, 1000)
    cfg = SolverConfig(0, 10, m=1000, dt=0.01, horizon=10.0,
                       snapshot_times=tuple(float(t) for t in range(11)),
                       scheme="rk4")
    return integrate(g0, ENV_KERNEL, cfg)


@pytest.fixture(scope="module")
def clustering_trajectory():
    """Bounded-confidence run on (0,10) to t=200, snapshots every 0.5."""
    g0 = GridMeasure1D.uniform(0.0, 10.0, 1000)
    times = tuple(np.round(np.arange(0.0, 200.5, 0.5), 10))
    cfg = SolverConfig(0, 10, m=1000, dt=0.01, horizon=200.0,
                       snapshot_times=times)
    return integrate(g0, DEFFUANT, cfg)


def test_criterion_01_averaging_consensus_monte_carlo():
    start = time.perf_counter()
    finals = []
    for replica in range(200):
        cfg = SimConfig(n=1000, kernel=CONST_HALF,
                        initial=Uniform(0.0, 1.0), horizon=20.0,
                        snapshot_times=(), seed=replica)
        _, state = run_with_state(cfg)
        assert np.var(state.opinions) < 1e-4
        finals.append(float(state.opinions.mean()))
    elapsed = time.perf_counter() - start
    finals = np.array(finals)
    se = finals.std(ddof=1) / np.sqrt(finals.size)
    assert abs(finals.mean() - 0.5) <= 3 * se
    assert elapsed < 30.0


def variance(g):
    return moment(g, 2) - moment(g, 1) ** 2


def test_criterion_02_meanfield_variance_decay():
    g0 = GridMeasure1D.uniform(0.0, 10.0, 2000)
    v0 = variance(g0)
    cfg = SolverConfig(0, 10, m=2000, dt=0.005, horizon=5.0,
                       snapshot_times=(1.0, 2.0, 3.0, 4.0, 5.0), scheme="rk4")
    for t, g in integrate(g0, CONST_HALF, cfg):
        ratio = variance(g) / (v0 * np.exp(-t / 2.0))
        assert 0.99 <= ratio <= 1.01, f"t={t}: ratio {ratio}"


def test_criterion_03_first_moment_closed_form(env_benchmark):
    # mean relaxes from 5 toward the environment mean 3 at rate 1/4
    for t, g in env_benchmark:
        expect = np.exp(-0.25 * t) * 5.0 + (1.0 - np.exp(-0.25 * t)) * 3.0
        assert abs(moment(g, 1) - expect) < 1e-3, f"t={t}"


def test_criterion_04_moment_system_matches_grid_solver(env_benchmark):
    K = 4
    g0 = env_benchmark[0][1]
    params = MomentParams(
        alpha=0.5, omega=0.5, upsilon=0.5,
        env_moments=tuple(env_moment(Bump(), k) for k in range(1, K + 1)),
        initial_moments=tuple(moment(g0, k) for k in range(1, K + 1)))
    traj = integrate_moments(params, 10.0)
    for t, g in env_benchmark:
        i = int(np.argmin(np.abs(traj.times - t)))
        for k in range(1, K + 1):
            ode = traj.values[k - 1, i]
            grid = moment(g, k)
            assert abs(grid - ode) / abs(ode) < 1e-3, f"t={t} k={k}"


def test_criterion_05_stationary_moment_recursion():
    K = 8
    env = tuple(env_moment(Bump(), k) for k in range(1, K + 1))
    p = MomentParams(alpha=0.5, omega=0.5, upsilon=0.5, env_moments=env,
                     initial_moments=tuple(5.0 ** k for k in range(1, K + 1)))
    lim = limit_moments(p)
    assert lim[0] == pytest.approx(3.0, abs=1e-12)
    long = integrate_moments(p, 200.0)
    assert abs(lim[1] - long.values[1][-1]) < 1e-4
    # a point-mass environment at c forces stationary moments c^k
    c = 1.7
    p_atom = MomentParams(alpha=0.5, omega=0.5, upsilon=0.5,
                          env_moments=tuple(c ** k for k in range(1, K + 1)),
                          initial_moments=tuple([0.0] * K))
    for k, v in enumerate(limit_moments(p_atom), start=1):
        assert v == pytest.approx(c ** k, abs=1e-10)


def test_criterion_06_bounded_confidence_clustering(clustering_trajectory):
    t, g = clustering_trajectory[-1]
    assert t == 200.0
    clusters = detect_clusters(g, mass_threshold=0.05, gap_cells=5)
    assert len(clusters) == 5
    assert sum(c.weight for c in clusters) > 0.95
    h = g.h
    for a, b in zip(clusters, clusters[1:]):
        assert b.center - a.center >= 1.0 - 2.0 * h
    # targets: the converged layout of the mean-field dynamics, two outer
    # and two inner major clusters about 2.2-2.8 radii apart with a minor
    # cluster between them; it moves by < 0.01 from m=500 to m=2000 (see
    # the refinement study in CHANGES.md). The tolerance is below the 0.062
    # shift that a cell-centre confidence cutoff causes at m=1000.
    centers = [c.center for c in clusters]
    for center, target in zip(centers, (1.281, 3.525, 5.0, 6.475, 8.719)):
        assert abs(center - target) <= 0.05, \
            f"cluster at {center:.3f} is {abs(center - target):.3f} " \
            f"from {target} (all centers: {[f'{c:.3f}' for c in centers]})"


def test_criterion_07_second_moment_lyapunov(clustering_trajectory):
    # per-step monotonicity, checked exactly over the first 1000 steps
    dt = 0.01
    cells = np.asarray(GridMeasure1D.uniform(0.0, 10.0, 1000).cells).copy()
    g = GridMeasure1D(0.0, 10.0, cells)
    m2 = moment(g, 2)
    for _ in range(1000):
        f = np.asarray(apply_F(g, DEFFUANT).cells)
        cells = cells + dt * (f - cells)
        np.maximum(cells, 0.0, out=cells)
        cells /= cells.sum()
        g = GridMeasure1D(0.0, 10.0, cells)
        m2_next = moment(g, 2)
        assert m2_next <= m2 + 1e-9
        m2 = m2_next
    # snapshot-level monotonicity over the full horizon (50 steps between
    # snapshots, so the per-step budget aggregates to 5e-8)
    m2s = [moment(snap, 2) for _, snap in clustering_trajectory]
    for a, b in zip(m2s, m2s[1:]):
        assert b <= a + 50 * 1e-9


def test_criterion_08_gaussian_kernel_consensus():
    k = KernelSpec(alpha=1.0, internal=Gaussian(0.5, 20.0))
    m = 500
    g0 = GridMeasure1D.uniform(0.0, 10.0, m)
    cfg = SolverConfig(0, 10, m=m, dt=0.05, horizon=100.0,
                       snapshot_times=(100.0,))
    (_, g), = integrate(g0, k, cfg)
    assert variance(g) < 1e-3
    assert abs(moment(g, 1) - 5.0) < 1e-3


def test_criterion_09_w1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        p = int(rng.integers(1, 13))
        q = int(rng.integers(1, 13))
        mu = AtomicMeasure(rng.uniform(-10, 10, p),
                           rng.uniform(0.1, 1.0, p)).normalize()
        nu = AtomicMeasure(rng.uniform(-10, 10, q),
                           rng.uniform(0.1, 1.0, q)).normalize()
        fast = wasserstein1_1d(mu, nu)
        exact = wasserstein1_oracle(mu, nu)
        assert abs(fast - exact) <= 1e-10


def test_criterion_10_concentration_trend():
    start = time.perf_counter()
    cfg = ConcentrationConfig(
        kernel=KernelSpec(alpha=1.0, internal=Gaussian(0.5, 20.0)),
        initial=Uniform(0.0, 10.0), tau=5.0, replicas=100, base_seed=1)
    table = run_concentration(cfg, threads=8)
    medians = [float(np.median(table.for_n(n))) for n in cfg.n_list]
    inversions = sum(b >= a for a, b in zip(medians, medians[1:]))
    assert inversions <= 1, f"medians {medians}"
    eps = float(np.median(table.for_n(300)))
    _, slope, stderr = tail_rates(table, eps)
    assert slope < 0.0
    assert slope + 2.0 * stderr < 0.0
    assert time.perf_counter() - start < 600.0


def test_criterion_11_byte_identical_artifacts(tmp_path):
    config = """{
      "kernel": {"alpha": 1.0,
                 "internal": {"type": "constant", "omega": 0.5}},
      "initial": {"type": "uniform", "a": 0.0, "b": 1.0},
      "simulate": {"n": 60, "horizon": 1.0, "snapshot_times": [0.5, 1.0]},
      "meanfield": {"m": 120, "dt": 0.05, "horizon": 1.0,
                    "snapshot_times": [0.5, 1.0]},
      "moments": {"K": 4, "T": 1.0, "dt": 0.005},
      "concentrate": {"tau": 0.5, "n_list": [50, 100], "replicas": 20}
    }"""
    cfg = parse_config(config.encode())
    for command in ("simulate", "meanfield", "moments", "concentrate",
                    "compare"):
        first = dispatch(cfg, command, out_dir=tmp_path / "a" / command)
        second = dispatch(cfg, command, out_dir=tmp_path / "b" / command)
        assert [p.name for p in first] == [p.name for p in second]
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes(), command
