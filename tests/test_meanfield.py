"""Tests for the deterministic grid solver of the interaction dynamics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gossipfield.kernels import (Atom, Atoms, BoundedConfidence, Bump,
                                 Constant, FiniteMixture, Gaussian, Grid,
                                 KernelSpec, Uniform, env_atoms, env_moment)
from gossipfield import meanfield
from gossipfield.meanfield import (SolverConfig, SolverError, apply_F,
                                   integrate, step_ends)
from gossipfield.measures import (AtomicMeasure, GridMeasure1D, moment,
                                  wasserstein1_1d)
from gossipfield.moments import MomentParams, limit_moments

CONST_HALF = KernelSpec(alpha=1.0, internal=Constant(0.5))

# heterogeneous-environment benchmark: half internal averaging, half
# attraction toward a smooth bump environment on (2,4)
ENV_KERNEL = KernelSpec(alpha=0.5, internal=Constant(0.5),
                         external=Constant(0.5), environment=Bump())


def spike(m, idx, lo=0.0, hi=10.0):
    cells = np.zeros(m)
    cells[idx] = 1.0
    return GridMeasure1D(lo, hi, cells)


# ---------------------------------------------------------------------------
# solver configuration


def test_solver_config_validation():
    with pytest.raises(SolverError):
        SolverConfig(0, 10, dt=0.2)
    with pytest.raises(SolverError):
        SolverConfig(0, 10, scheme="heun")
    with pytest.raises(SolverError):
        SolverConfig(0, 10, horizon=1.0, snapshot_times=(2.0,))
    with pytest.raises(SolverError, match="sorted"):
        SolverConfig(0, 10, horizon=1.0, snapshot_times=(1.0, 0.5))
    with pytest.raises(SolverError, match="hi must exceed lo"):
        SolverConfig(10, 0)
    with pytest.raises(SolverError, match="m must be"):
        SolverConfig(0, 10, m=1)
    with pytest.raises(SolverError, match="horizon must be nonnegative"):
        SolverConfig(0, 10, horizon=-1.0)


# ---------------------------------------------------------------------------
# apply_F


def test_spike_is_fixed_point():
    g = spike(100, 37)
    for law in (Constant(0.5), BoundedConfidence(0.5, 1.0), Gaussian(0.5, 2.0)):
        out = apply_F(g, KernelSpec(alpha=1.0, internal=law))
        np.testing.assert_allclose(out.cells, g.cells, atol=1e-14)


def test_two_atom_hand_oracle():
    # {1/2 at 0.5, 1/2 at 1.5} with midpoint averaging: the four ordered
    # pairs give {1/4 at 0.5, 1/2 at 1.0, 1/4 at 1.5}
    g = GridMeasure1D(0.0, 2.0, np.array([0.5, 0.5]))
    out = apply_F(g, CONST_HALF)
    np.testing.assert_allclose(out.cells, [0.5, 0.5], atol=1e-14)
    # on a 4-cell grid the midpoint lands on a center and stays exact
    g4 = GridMeasure1D(0.0, 2.0, np.array([0.5, 0.0, 0.0, 0.5]))
    out4 = apply_F(g4, KernelSpec(alpha=1.0, internal=Constant(0.5)))
    np.testing.assert_allclose(out4.cells, [0.25, 0.25, 0.25, 0.25],
                               atol=1e-14)


def test_two_spikes_conv_oracle():
    # aligned so all pair midpoints are cell centers
    m = 5
    cells = np.zeros(m)
    cells[0] = 0.5
    cells[4] = 0.5
    g = GridMeasure1D(0.0, 5.0, cells)
    out = apply_F(g, CONST_HALF)
    expect = np.zeros(m)
    expect[0] = 0.25
    expect[2] = 0.5
    expect[4] = 0.25
    np.testing.assert_allclose(out.cells, expect, atol=1e-14)


def test_bounded_confidence_out_of_range_is_identity():
    cells = np.zeros(50)
    cells[5] = 0.5
    cells[45] = 0.5
    g = GridMeasure1D(0.0, 10.0, cells)
    k = KernelSpec(alpha=1.0, internal=BoundedConfidence(0.5, 1.0))
    out = apply_F(g, k)
    np.testing.assert_allclose(out.cells, g.cells, atol=1e-14)


def test_bounded_confidence_exact_boundary_fraction():
    # cells read as uniform densities: two equal cells whose centers are
    # exactly R apart (R/h = 4) have half of their point pairs within R,
    # so they move half the mass of a pair inside the radius; a pair at
    # R + h has no point pair within R and does not move
    k = KernelSpec(alpha=1.0, internal=BoundedConfidence(0.5, 1.0))
    moved = {}
    for lag in (3, 4, 5):
        cells = np.zeros(40)  # h = 0.25
        cells[10] = 0.5
        cells[10 + lag] = 0.5
        g = GridMeasure1D(0.0, 10.0, cells)
        out = apply_F(g, k)
        assert out.total_mass == pytest.approx(1.0, abs=1e-12)
        assert moment(out, 1) == pytest.approx(moment(g, 1), abs=1e-12)
        moved[lag] = 1.0 - out.cells[10] - out.cells[10 + lag]
    assert moved[3] == pytest.approx(0.5, abs=1e-14)
    assert moved[4] == pytest.approx(0.5 * moved[3], abs=1e-14)
    assert moved[5] == pytest.approx(0.0, abs=1e-14)


def test_apply_F_mass_and_mean_conservation():
    rng = np.random.default_rng(0)
    cells = rng.random(200)
    g = GridMeasure1D(0.0, 10.0, cells / cells.sum())
    for k in (CONST_HALF,
              KernelSpec(alpha=1.0, internal=Constant(0.3)),
              KernelSpec(alpha=1.0, internal=Gaussian(0.5, 2.0)),
              KernelSpec(alpha=1.0, internal=BoundedConfidence(0.5, 1.0)),
              KernelSpec(alpha=1.0,
                         internal=FiniteMixture((0.25, 0.75), (0.5, 0.5)))):
        out = apply_F(g, k)
        assert out.total_mass == pytest.approx(1.0, abs=1e-12)
        # linear-split deposits preserve the mean of each deposit exactly;
        # symmetric laws then preserve the overall mean
        assert moment(out, 1) == pytest.approx(moment(g, 1), abs=1e-12)


def _splat(expect, g, z, mass):
    pos = (z - g.lo) / g.h - 0.5
    a = int(np.floor(pos))
    f = pos - a
    expect[a] += mass * (1 - f)
    if f > 0:
        expect[a + 1] += mass * f


def _oracle_weight(law, d):
    if isinstance(law, Constant):
        return law.omega
    if isinstance(law, BoundedConfidence):  # the environment branch's cutoff
        return law.omega0 if d <= law.radius else 0.0
    return law.omega0 * np.exp(-d ** 2 / law.sigma ** 2)


def _oracle_moved_fraction(law, g, i, j):
    """The fraction of the point pairs of uniform cells i and j that lie
    within the confidence radius: the in-cell offset difference s (in
    cells) has the triangular density 1 - |s| on [-1, 1]."""
    r, d = law.radius / g.h, abs(i - j)
    a, b = max(-1.0, -r - d), min(1.0, r - d)
    if a >= b:
        return 0.0
    return quad(lambda s: 1.0 - abs(s), a, b,
                points=[0.0] if a < 0 < b else None)[0]


def _oracle_F(g, k):
    """F by hand: every ordered cell pair and every (cell, environment atom)
    pair moves as the cell centers do. Under bounded confidence, whose cells
    are read as uniform densities, a fraction of each cell pair moves with
    omega0 and the rest stays."""
    cells = np.asarray(g.cells)
    centers = g.centers
    expect = np.zeros(g.m)
    if k.alpha > 0:
        law = k.internal
        branches = ([(Constant(w), p) for w, p in zip(law.omegas, law.probs)]
                    if isinstance(law, FiniteMixture) else [(law, 1.0)])
        for law, prob in branches:
            for i in range(g.m):
                for j in range(g.m):
                    mass = k.alpha * prob * cells[i] * cells[j]
                    if isinstance(law, BoundedConfidence):
                        p = _oracle_moved_fraction(law, g, i, j)
                        w = law.omega0
                        _splat(expect, g, centers[i], (1 - p) * mass)
                        mass *= p
                    else:
                        w = _oracle_weight(law,
                                           abs(centers[i] - centers[j]))
                    _splat(expect, g, (1 - w) * centers[i] + w * centers[j],
                           mass)
    if k.alpha < 1:
        law = k.external
        branches = (zip(law.omegas, law.probs)
                    if isinstance(law, FiniteMixture) else [(None, 1.0)])
        env_pos, env_mass = env_atoms(k.environment, meanfield._ENV_CELLS)
        for upsilon, p in branches:
            for e, q in zip(env_pos, env_mass):
                for i in range(g.m):
                    u = (_oracle_weight(law, abs(centers[i] - e))
                         if upsilon is None else upsilon)
                    _splat(expect, g, (1 - u) * centers[i] + u * e,
                           (1 - k.alpha) * p * q * cells[i])
    return expect


def _random_grid(seed, lo, hi, m):
    cells = np.random.default_rng(seed).random(m)
    return GridMeasure1D(lo, hi, cells / cells.sum())


def _oracle_cases():
    """Grids and kernels for the oracles: constant 1/2 is the FFT
    convolution, and every other internal law goes through the lag plan,
    bounded confidence once with a radius past the grid's width, so that
    the plan spans every lag; the environment cases cover a one-row band
    (atom), the bench's bump, and uniform environments over the whole
    hull, where the map's row blocks go dense. External weight 1/2 joins
    the FFT convolution: alone, as a mixture's component, beside a lag
    plan, and with atoms on the first and the last centre."""
    g40 = _random_grid(1, 0.0, 4.0, 40)
    g150 = _random_grid(2, 0.0, 6.0, 150)
    c0, cm = g150.centers[0], g150.centers[-1]
    return [
        (g40, KernelSpec(alpha=1.0, internal=Gaussian(0.6, 1.3))),
        (g40, KernelSpec(alpha=1.0, internal=Constant(0.3))),
        (g40, KernelSpec(alpha=1.0, internal=FiniteMixture(
            (0.5, 0.3, 0.0), (0.3, 0.5, 0.2)))),
        (g40, KernelSpec(alpha=1.0, internal=BoundedConfidence(0.5, 0.83))),
        (g40, KernelSpec(alpha=1.0, internal=BoundedConfidence(0.3, 4.5))),
        (g150, CONST_HALF),
        (g150, KernelSpec(alpha=0.4, internal=Constant(0.5),
                          external=Constant(0.3), environment=Atom(1.7))),
        (g150, KernelSpec(alpha=0.5, internal=Constant(0.5),
                          external=BoundedConfidence(0.6, 1.5),
                          environment=Bump())),
        (g150, KernelSpec(alpha=0.0, internal=Constant(0.5),
                          external=Gaussian(0.8, 2.0),
                          environment=Uniform(c0, cm))),
        (g150, KernelSpec(alpha=0.3, internal=Constant(0.5),
                          external=FiniteMixture((0.2, 1.0), (0.4, 0.6)),
                          environment=Uniform(c0, cm))),
        (g150, ENV_KERNEL),
        (g150, KernelSpec(alpha=0.6, internal=Gaussian(0.6, 1.3),
                          external=Constant(0.5), environment=Atom(2.3))),
        (g150, KernelSpec(alpha=0.3, internal=Constant(0.5),
                          external=FiniteMixture((0.5, 0.2, 1.0),
                                                 (0.5, 0.3, 0.2)),
                          environment=Uniform(c0, cm))),
        (g150, KernelSpec(alpha=0.4, internal=Constant(0.3),
                          external=Constant(0.5), environment=Atom(c0))),
        (g150, KernelSpec(alpha=0.0, internal=Constant(0.5),
                          external=Constant(0.5), environment=Atom(cm))),
    ]


def test_apply_F_matches_direct_double_sum():
    """Independent oracle: enumerate every ordered cell pair and every
    (cell, environment atom) pair and splat the deposit by hand."""
    for g, k in _oracle_cases():
        out = apply_F(g, k)
        np.testing.assert_allclose(out.cells, _oracle_F(g, k), atol=1e-13,
                                   err_msg=repr(k))


def _dense_blocks(g, k):
    """The environment map's row blocks cut from the dense m x m map T,
    built by np.add.at in the order of branches, atoms and the two sides
    of each splat: 64-row blocks over T's nonzero rows, each trimmed to its
    nonzero columns. The map leaves out the weight-1/2 branches, which the
    FFT convolution takes."""
    law, m, centers = k.external, g.m, g.centers
    branches = (list(zip(law.omegas, law.probs))
                if isinstance(law, FiniteMixture) else [(None, 1.0)])
    branches = [(upsilon, p) for upsilon, p in branches
                if upsilon != 0.5 and law != Constant(0.5)]
    env_pos, env_mass = env_atoms(k.environment, meanfield._ENV_CELLS)
    T = np.zeros((m, m))
    cols = np.arange(m)
    for upsilon, p in branches:
        for e, q in zip(env_pos, env_mass):
            u = (meanfield.weight_value(law, np.abs(centers - e))
                 if upsilon is None else upsilon)
            z = (1.0 - u) * centers + u * e
            pos = np.clip((z - g.lo) / g.h - 0.5, 0.0, m - 1.0)
            idx = np.floor(pos).astype(np.int64)
            frac = pos - idx
            scale = (1.0 - k.alpha) * p * q
            np.add.at(T, (idx, cols), scale * (1.0 - frac))
            np.add.at(T, (np.minimum(idx + 1, m - 1), cols), scale * frac)
    rows = np.flatnonzero(T.any(axis=1))
    blocks = []
    if not rows.size:
        return blocks
    for r0 in range(rows[0], rows[-1] + 1, 64):
        r1 = min(r0 + 64, rows[-1] + 1)
        nz = np.flatnonzero(T[r0:r1].any(axis=0))
        if nz.size:
            c0, c1 = nz[0], nz[-1] + 1
            blocks.append((r0, r1, c0, c1, T[r0:r1, c0:c1]))
    return blocks


def test_environment_blocks_match_dense_map():
    """The row blocks are filled without forming the dense map, and equal
    the blocks cut from it bit for bit, extents and shapes included. At
    m = 1000 the bench kernel keeps no blocks, and its weight-0.3 twin
    keeps twelve."""
    cases = [(g, k) for g, k in _oracle_cases() if k.alpha < 1.0]
    g1000 = GridMeasure1D.uniform(0.0, 10.0, 1000)
    cases += [(g1000, ENV_KERNEL),
              (g1000, KernelSpec(alpha=0.5, internal=Constant(0.5),
                                 external=Constant(0.3),
                                 environment=Bump()))]
    for g, k in cases:
        got = meanfield._FieldEvaluator(g, k).ext_blocks
        want = _dense_blocks(g, k)
        assert [b[:4] for b in got] == [b[:4] for b in want], repr(k)
        for b, w in zip(got, want):
            np.testing.assert_array_equal(b[4], w[4], strict=True)


@pytest.mark.parametrize("lo, hi, m", [(0.0, 6.0, 150), (0.0, 10.0, 1000)])
def test_half_environment_convolution_matches_its_map(lo, hi, m):
    """The external 1/2 branch by FFT equals the map the row blocks build
    for it. On the m = 1000 grid the last centre sits 1e-13 cells past
    m - 1, so an atom there has its position clipped."""
    g = _random_grid(4, lo, hi, m)
    cells = np.asarray(g.cells)
    c0, cm = g.centers[0], g.centers[-1]
    for env in (Atom(c0), Atom(cm), Bump(), Uniform(c0, cm)):
        k = KernelSpec(alpha=0.0, internal=Constant(0.5),
                       external=Constant(0.5), environment=env)
        ev = meanfield._FieldEvaluator(g, k)
        assert ev.ext_blocks == []
        pos, mass = env_atoms(env, meanfield._ENV_CELLS)
        want = np.zeros(m)
        for r0, r1, b0, b1, block in meanfield._external_blocks(
                lo, g.h, [(Constant(0.5), 1.0)], pos, mass, g.centers):
            want[r0:r1] += block @ cells[b0:b1]
        np.testing.assert_allclose(ev.apply_raw(cells), want, rtol=0,
                                   atol=1e-15, err_msg=repr(env))


@pytest.mark.parametrize("m", [2, 3, 4, 500, 513, 1000, 1024, 2000])
@pytest.mark.parametrize("coeff, env_coeff", [(0.7, 0.0), (0.0, 0.3),
                                              (0.4, 0.6)])
def test_spectral_fold_matches_direct_convolution(m, coeff, env_coeff):
    """The weight-1/2 branches, folded in the spectrum, against
    np.convolve onto the half-step grid and the fold c[2i] + (c[2i - 1]
    + c[2i + 1])/2 onto the centres: the internal branch alone, the
    environment's alone, and both, to a few roundings of the largest
    entry."""
    rng = np.random.default_rng(m)
    cells = rng.random(m)
    cells /= cells.sum()
    env = rng.random(m)
    env /= env.sum()
    conv = (coeff * np.convolve(cells, cells)
            + env_coeff * np.convolve(cells, env))
    odd = np.concatenate(([0.0], conv[1::2], [0.0]))
    want = conv[0::2] + 0.5 * (odd[:-1] + odd[1:])
    n_fft = meanfield._fft_size(m)
    assert n_fft >= 2 * m and n_fft & (n_fft - 1) == 0
    fold = meanfield._fold_filter(n_fft)
    env_hat = (fold * np.fft.rfft(env_coeff * env, n_fft) if env_coeff
               else None)
    got = meanfield._conv_half(cells, coeff * fold, env_hat)
    assert got.shape == (m,)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=4 * np.finfo(float).eps * want.max())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40),
       st.lists(st.tuples(st.floats(0, 1), st.floats(0.01, 1)),
                min_size=1, max_size=8))
def test_split_onto_centres_keeps_mass_and_mean(m, points):
    # positions spread over the centres' range, the ends included
    g = GridMeasure1D.uniform(-1.0, 3.0, m)
    u, w = map(np.array, zip(*points))
    x = g.centers[0] + u * (g.centers[-1] - g.centers[0])
    cells = meanfield.split_onto_centres(g.lo, g.h, m, x, w)
    assert cells.min() >= 0.0
    assert cells.sum() == pytest.approx(w.sum(), abs=1e-12)
    assert cells @ g.centers == pytest.approx(w @ x, abs=1e-12)


def test_split_onto_centres_puts_positions_past_the_ends_on_them():
    g = GridMeasure1D.uniform(0.0, 1.0, 10)  # centres 0.05 .. 0.95
    x = np.array([-5.0, 0.01, 0.99, 7.0])
    cells = meanfield.split_onto_centres(g.lo, g.h, g.m, x,
                                         np.array([0.1, 0.2, 0.3, 0.4]))
    assert cells[0] == pytest.approx(0.3, abs=1e-15)
    assert cells[-1] == pytest.approx(0.7, abs=1e-15)
    assert not cells[1:-1].any()


def test_apply_F_requires_normalized():
    g = GridMeasure1D(0.0, 1.0, np.array([0.2, 0.2]))
    with pytest.raises(SolverError):
        apply_F(g, CONST_HALF)


def test_environment_outside_grid_rejected():
    k = KernelSpec(alpha=0.5, internal=Constant(0.5), external=Constant(0.5),
                   environment=Bump())  # support (2,4)
    g = GridMeasure1D.uniform(0.0, 1.0, 32)
    with pytest.raises(SolverError, match="cover"):
        apply_F(g, k)


@pytest.mark.parametrize("upsilon", [0.5, 0.3])
def test_one_atom_environment_is_the_atom(upsilon):
    # atoms are read as their own positions and weights, so a one-atom
    # environment runs the same branch, on the same numbers, as an atom:
    # the half-grid convolution at weight 1/2, the environment map else
    solver = SolverConfig(0.0, 10.0, m=200, dt=0.05, horizon=1.0,
                          snapshot_times=(0.5, 1.0), scheme="rk4")
    g0 = GridMeasure1D.uniform(0.0, 10.0, 200)
    runs = [integrate(g0, KernelSpec(alpha=0.6, internal=Constant(0.5),
                                     external=Constant(upsilon),
                                     environment=env), solver)
            for env in (Atom(3.3), Atoms(AtomicMeasure.from_points(
                [(3.3, 1.0)])))]
    for (t, a), (s, b) in zip(*runs):
        assert t == s
        assert np.array_equal(a.cells, b.cells)


def test_external_branch_pulls_toward_environment():
    g0 = GridMeasure1D.uniform(0.0, 10.0, 500)
    k = KernelSpec(alpha=0.0, internal=Constant(0.5), external=Constant(1.0),
                   environment=Bump())
    out = apply_F(g0, k)
    # full-weight environment jumps reproduce the environment law
    assert moment(out, 1) == pytest.approx(3.0, abs=1e-3)


# ---------------------------------------------------------------------------
# density growth


def test_sup_density_growth_is_at_most_exponential():
    g0 = GridMeasure1D.uniform(0.0, 10.0, 400)
    k = KernelSpec(alpha=1.0, internal=BoundedConfidence(0.5, 1.0))
    cfg = SolverConfig(0, 10, m=400, dt=0.01, horizon=5.0,
                       snapshot_times=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0))
    # the density sup is the largest cell mass over the cell width
    rates = [np.log(np.max(g.cells) / g.h * 10.0) / t
             for t, g in integrate(g0, k, cfg)]
    assert max(rates) < 10.0  # a finite exponential rate bound


# ---------------------------------------------------------------------------
# integrate


def test_integrate_spike_equilibrium():
    g0 = spike(100, 42)
    cfg = SolverConfig(0, 10, m=100, dt=0.05, horizon=2.0,
                       snapshot_times=(1.0, 2.0))
    for _, g in integrate(g0, CONST_HALF, cfg):
        np.testing.assert_allclose(g.cells, g0.cells, atol=1e-10)


def test_integrate_snapshots_normalized():
    g0 = GridMeasure1D.uniform(0.0, 10.0, 200)
    cfg = SolverConfig(0, 10, m=200, dt=0.01, horizon=1.0,
                       snapshot_times=(0.0, 0.5, 1.0))
    snaps = integrate(g0, CONST_HALF, cfg)
    assert [t for t, _ in snaps] == [0.0, 0.5, 1.0]
    for _, g in snaps:
        assert abs(g.total_mass - 1.0) < 1e-10


@pytest.mark.parametrize("horizon, dt, times", [
    (1.0, 0.03, ()),
    (1.0, 0.03, (0.0, 0.3, 0.31, 0.5, 1.0)),
    (0.1, 0.01, (0.0333, 0.0501)),
    (1.0, 0.1, (0.3 + 5e-10, 0.7 - 5e-10)),
    (2.0, 0.003, (1e-10, 1.0)),
    (27.3714, 0.0098, ()),  # a grid end one ulp below the horizon
    (0.0, 0.01, (0.0,)),
])
def test_step_ends_reach_every_time_and_stop_at_the_horizon(horizon, dt,
                                                             times):
    ends = step_ends(horizon, dt, times)
    assert np.all(ends <= horizon)
    assert np.all(np.diff(ends, prepend=0.0) > 1e-9)
    for s in (*times, horizon):
        assert s <= 1e-9 or np.min(np.abs(ends - s)) <= 1e-9
    if horizon > 0:
        assert ends[-1] == horizon
    else:
        assert ends.size == 0


def test_euler_steps_stop_at_the_horizon(monkeypatch):
    # dt = 0.03 does not divide 1: 33 full steps and one of 0.01
    calls = []
    apply_raw = meanfield._FieldEvaluator.apply_raw
    monkeypatch.setattr(meanfield._FieldEvaluator, "apply_raw",
                        lambda ev, cells: calls.append(1) or apply_raw(
                            ev, cells))
    cfg = SolverConfig(0, 1, m=20, dt=0.03, horizon=1.0,
                       snapshot_times=(1.0,))
    (t, _), = integrate(GridMeasure1D.uniform(0.0, 1.0, 20), CONST_HALF, cfg)
    assert t == 1.0
    assert len(calls) == 34


def test_integrate_grid_mismatch_rejected():
    g0 = GridMeasure1D.uniform(0.0, 10.0, 100)
    cfg = SolverConfig(0, 10, m=200, dt=0.01, horizon=1.0)
    with pytest.raises(SolverError, match="mismatch"):
        integrate(g0, CONST_HALF, cfg)


def test_variance_decay_rate_euler():
    # averaging dynamics contracts the variance at rate 2 w (1-w) = 1/2
    def variance(g):
        return moment(g, 2) - moment(g, 1) ** 2

    g0 = GridMeasure1D.uniform(0.0, 10.0, 500)
    v0 = variance(g0)
    cfg = SolverConfig(0, 10, m=500, dt=0.01, horizon=3.0,
                       snapshot_times=(1.0, 2.0, 3.0))
    for t, g in integrate(g0, CONST_HALF, cfg):
        assert variance(g) / (v0 * np.exp(-0.5 * t)) == pytest.approx(
            1.0, abs=0.02)


def test_first_moment_conserved_alpha_one():
    g0 = GridMeasure1D.uniform(0.0, 10.0, 400, support=(1.0, 7.0))
    cfg = SolverConfig(0, 10, m=400, dt=0.01, horizon=5.0,
                       snapshot_times=(5.0,))
    (_, g), = integrate(g0, CONST_HALF, cfg)
    assert moment(g, 1) == pytest.approx(moment(g0, 1), abs=5 * 1e-8)


def test_heterogeneous_environment_mean_relaxes():
    # closed form for the mean: exponential relaxation toward the
    # environment mean at rate (1-alpha) * upsilon
    m = 400
    g0 = GridMeasure1D.uniform(0.0, 10.0, m)
    cfg = SolverConfig(0, 10, m=m, dt=0.01, horizon=4.0,
                       snapshot_times=(1.0, 2.0, 4.0))
    for t, g in integrate(g0, ENV_KERNEL, cfg):
        expect = np.exp(-0.25 * t) * 5.0 + (1 - np.exp(-0.25 * t)) * 3.0
        assert moment(g, 1) == pytest.approx(expect, abs=1e-3)


def test_grid_environment_limit_matches_the_moment_recursion():
    # a 2-cell environment is the uniform density on [2, 8], as sampled;
    # read as its 2 cell centres it would lose its in-cell variance
    env = Grid(GridMeasure1D(2.0, 8.0, np.array([0.5, 0.5])))
    k = KernelSpec(alpha=0.5, internal=Constant(0.5),
                   external=Constant(0.5), environment=env)
    g0 = GridMeasure1D.uniform(0.0, 10.0, 200)
    # Euler's fixed point is F(mu) = mu at any dt; 1000 steps reach it
    cfg = SolverConfig(0, 10, m=200, dt=0.1, horizon=100.0,
                       snapshot_times=(100.0,))
    (_, g), = integrate(g0, k, cfg)
    p = MomentParams(0.5, 0.5, 0.5,
                     tuple(env_moment(env, j) for j in (1, 2, 3)),
                     tuple(moment(g0, j) for j in (1, 2, 3)))
    for j, limit in enumerate(limit_moments(p), start=1):
        assert moment(g, j) == pytest.approx(limit, rel=1e-4), j


def _w1_at_t1(scheme, dt, m=200):
    g0 = GridMeasure1D.uniform(0.0, 10.0, m)
    cfg = SolverConfig(0, 10, m=m, dt=dt, horizon=1.0, snapshot_times=(1.0,),
                       scheme=scheme)
    (_, g), = integrate(g0, ENV_KERNEL, cfg)
    return g


def test_convergence_order_euler():
    ref = _w1_at_t1("euler", 0.0025)
    e1 = wasserstein1_1d(_w1_at_t1("euler", 0.02), ref)
    e2 = wasserstein1_1d(_w1_at_t1("euler", 0.01), ref)
    assert 1.5 < e1 / e2 < 3.0  # first order: halving dt halves the error


def test_convergence_order_rk4():
    # fourth order: RK4 at modest dt is already at the dt-independent
    # floor set by spatial discretization; compare against Euler instead
    ref = _w1_at_t1("rk4", 0.0025)
    e_rk4 = wasserstein1_1d(_w1_at_t1("rk4", 0.02), ref)
    e_euler = wasserstein1_1d(_w1_at_t1("euler", 0.02), ref)
    assert e_rk4 < e_euler / 10.0


def test_grid_refinement_consistency():
    # doubling m moves the t=2 solution by less than the coarse h
    results = {}
    for m in (250, 500):
        g0 = GridMeasure1D.uniform(0.0, 10.0, m)
        cfg = SolverConfig(0, 10, m=m, dt=0.01, horizon=2.0,
                           snapshot_times=(2.0,))
        (_, g), = integrate(g0, ENV_KERNEL, cfg)
        results[m] = g
    d = wasserstein1_1d(results[250], results[500])
    assert d < 10.0 / 250


# ---------------------------------------------------------------------------
# W1 stability of the flow d/dt mu = F(mu) - mu


STABILITY_TIMES = tuple(np.round(np.arange(201) * 0.05, 10))


def _flow_w1(kernel):
    """The density W1 between the solutions from uniform(0, 10) and from
    uniform(1, 6), at every RK4 step to t = 10."""
    lo, hi, m = -0.5, 10.5, 200
    cfg = SolverConfig(lo, hi, m=m, dt=0.05, horizon=10.0,
                       snapshot_times=STABILITY_TIMES, scheme="rk4")
    a, b = (integrate(GridMeasure1D.uniform(lo, hi, m, support=s), kernel,
                      cfg) for s in ((0.0, 10.0), (1.0, 6.0)))
    return np.array([wasserstein1_1d(ga, gb)
                     for (_, ga), (_, gb) in zip(a, b)])


@pytest.mark.parametrize("omega", [0.5, 0.3])
def test_constant_weight_flow_is_w1_nonexpansive(omega):
    # F is nonexpansive in W1 for a constant weight; with alpha = 1 the
    # means are conserved, so W1 falls towards their difference, 1.5
    w1 = _flow_w1(KernelSpec(alpha=1.0, internal=Constant(omega)))
    assert np.all(np.diff(w1) < 0.0)
    assert w1[0] == pytest.approx(1.7, abs=1e-3)
    assert w1[-1] == pytest.approx(1.5, abs=1e-4)


@pytest.mark.parametrize("omega, upsilon", [(0.5, 0.5), (0.3, 0.3)])
def test_environment_flow_contracts_in_w1(omega, upsilon):
    # the environment branch contracts W1 by 1 - upsilon, so by Gronwall
    # W1(t) <= exp(-(1 - alpha) upsilon t) W1(0)
    alpha = 0.5
    w1 = _flow_w1(KernelSpec(alpha=alpha, internal=Constant(omega),
                             external=Constant(upsilon),
                             environment=Bump()))
    bound = np.exp(-(1.0 - alpha) * upsilon * np.array(STABILITY_TIMES))
    assert np.all(w1 <= bound * w1[0] + 1e-12)
