"""Tests for weight laws, laws on the line, and the interaction kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipfield.agent_sim import SimConfig, run_with_state
from gossipfield.kernels import (Atom, Atoms, BoundedConfidence, Bump,
                                 Constant, FiniteMixture, Gaussian, Grid,
                                 KernelError, KernelSpec, Uniform,
                                 draw_mixture, env_atoms, env_bump_grid,
                                 env_moment, env_support, make_env_sampler,
                                 weight_value)
from gossipfield.measures import AtomicMeasure, GridMeasure1D


# ---------------------------------------------------------------------------
# weight-law validation


def test_law_parameter_validation():
    with pytest.raises(KernelError):
        Constant(1.5)
    with pytest.raises(KernelError):
        BoundedConfidence(0.0, 1.0)
    with pytest.raises(KernelError):
        BoundedConfidence(0.5, 0.0)
    with pytest.raises(KernelError):
        Gaussian(0.5, 0.0)
    with pytest.raises(KernelError):
        FiniteMixture((0.5, 0.5), (0.6, 0.6))
    with pytest.raises(KernelError):
        FiniteMixture((), ())


def test_bounded_confidence_values():
    law = BoundedConfidence(0.5, 1.0)
    assert weight_value(law, 0.5) == 0.5
    assert weight_value(law, 2.0) == 0.0
    assert weight_value(law, 1.0) == 0.5  # boundary included


def test_gaussian_at_zero_distance():
    law = Gaussian(0.7, 3.0)
    assert weight_value(law, 0.0) == pytest.approx(0.7)
    assert weight_value(law, 3.0) == pytest.approx(0.7 * np.exp(-1.0))


def test_weight_value_vectorized():
    law = BoundedConfidence(0.5, 1.0)
    np.testing.assert_allclose(weight_value(law, np.array([0.2, 1.7])),
                               [0.5, 0.0])


def test_mixture_has_no_deterministic_value():
    with pytest.raises(KernelError):
        weight_value(FiniteMixture((0.2, 0.8), (0.5, 0.5)), 0.0)


def test_mixture_sampling_frequencies():
    mix = FiniteMixture((0.0, 1.0), (0.25, 0.75))
    draws = draw_mixture(mix, np.random.default_rng(7), 4000)
    assert draws.shape == (4000,)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert np.mean(draws) == pytest.approx(0.75, abs=0.03)


@settings(max_examples=60, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_deterministic_laws_symmetric_and_repeatable(x, y):
    for law in (Constant(0.4), BoundedConfidence(0.5, 1.0), Gaussian(0.6, 2.0)):
        a = weight_value(law, abs(x - y))
        b = weight_value(law, abs(y - x))
        assert a == b
        assert weight_value(law, abs(x - y)) == a
        # on an array (the simulator's per-run form) it is the same,
        # element by element, to the bit
        d = np.array([abs(x - y), abs(x), abs(y), 0.0, 1.0])
        whole = np.asarray(weight_value(law, d), dtype=float)
        each = np.array([weight_value(law, v) for v in d], dtype=float)
        assert whole.tobytes() == each.tobytes()


# ---------------------------------------------------------------------------
# environments


def test_env_atom_moment():
    assert env_moment(Atom(4.0), 3) == pytest.approx(64.0)


def test_env_uniform_moment():
    assert env_moment(Uniform(0.0, 1.0), 2) == pytest.approx(1.0 / 3.0)


def test_env_bump_first_moment_symmetric():
    assert env_moment(Bump(), 1) == pytest.approx(3.0, abs=1e-8)


def test_env_bump_moments_match_adaptive_quadrature():
    from scipy.integrate import quad

    def density(x):
        u = 1.0 - (x - 3.0) ** 2
        return np.exp(-1.0 / u) if u > 0 else 0.0

    norm, _ = quad(density, 2.0, 4.0, epsabs=1e-14)
    for k in range(1, 13):
        oracle, _ = quad(lambda x: density(x) * x ** k, 2.0, 4.0,
                         epsabs=1e-14)
        assert env_moment(Bump(), k) == pytest.approx(
            oracle / norm, abs=1e-8 * max(1.0, oracle / norm))


def test_bump_quadrature_matches_scipy_simpson():
    from scipy.integrate import simpson

    def density(x):
        u = 1.0 - (x - 3.0) ** 2
        out = np.zeros_like(x)
        out[u > 0] = np.exp(-1.0 / u[u > 0])
        return out

    x = np.linspace(2.0, 4.0, (1 << 13) + 1)
    f = density(x)
    norm = simpson(f, x=x)
    for k in range(1, 9):
        assert env_moment(Bump(), k) == pytest.approx(
            simpson(f * x ** k, x=x) / norm, rel=1e-14)
    for m in (256, 1024):
        h = 2.0 / m
        cells = np.array([
            simpson(density(xc), x=xc)
            for xc in (np.linspace(2.0 + i * h, 2.0 + (i + 1) * h, 9)
                       for i in range(m))])
        np.testing.assert_allclose(env_bump_grid(m).cells,
                                   cells / cells.sum(), rtol=1e-14, atol=0)


def test_env_grid_moment_exact_for_uniform_cells():
    g = GridMeasure1D.uniform(0.0, 1.0, 64)
    assert env_moment(Grid(g), 2) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_env_moment_requires_environment():
    with pytest.raises(KernelError):
        env_moment(None, 1)
    with pytest.raises(KernelError):
        env_moment(Atom(1.0), 0)


def test_env_support():
    assert env_support(Atom(2.0)) == (2.0, 2.0)
    assert env_support(Uniform(1.0, 4.0)) == (1.0, 4.0)
    assert env_support(Bump()) == (2.0, 4.0)


def test_env_atoms_total_mass():
    # every law, in either role, has a solver reading as atoms
    for env in LAWS.values():
        pos, mass = env_atoms(env, 128)
        assert mass.sum() == pytest.approx(1.0, abs=1e-10)
        lo, hi = env_support(env)
        assert pos.min() >= lo and pos.max() <= hi
    # atoms are their own positions and weights
    atoms = LAWS["atoms"].measure
    pos, mass = env_atoms(LAWS["atoms"], 128)
    assert np.array_equal(pos, atoms.positions)
    assert np.array_equal(mass, atoms.weights)


# one law of each kind; every one may be the initial law or the environment
LAWS = {"atom": Atom(1.5),
        "atoms": Atoms(AtomicMeasure.from_points([(2.0, 0.25), (5.0, 0.75)])),
        "uniform": Uniform(2.0, 5.0),
        "grid": Grid(GridMeasure1D(-1.0, 1.0, np.arange(1.0, 9.0) / 36.0)),
        "bump": Bump()}


@pytest.mark.parametrize("law", LAWS.values(), ids=list(LAWS))
def test_law_sampler_draws_within_support_at_the_mean(law):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    n = 4000
    xs = make_env_sampler(law)(rng, n)
    lo, hi = env_support(law)
    assert xs.shape == (n,)
    assert xs.min() >= lo and xs.max() <= hi
    mean = env_moment(law, 1)
    if isinstance(law, Atom):
        # every draw is z, and the generator is left as it was
        assert xs.mean() == mean == law.z
        assert rng.bit_generator.state == state
    else:
        stderr = np.sqrt((env_moment(law, 2) - mean ** 2) / n)
        assert abs(xs.mean() - mean) <= 5 * stderr


def test_env_sampler_bump_mean():
    xs = make_env_sampler(Bump())(np.random.default_rng(11), 20000)
    assert xs.mean() == pytest.approx(3.0, abs=0.01)


# ---------------------------------------------------------------------------
# kernel spec and updates


def test_kernel_requires_environment_when_alpha_below_one():
    with pytest.raises(KernelError, match="environment required"):
        KernelSpec(alpha=0.5, internal=Constant(0.5))
    KernelSpec(alpha=0.5, internal=Constant(0.5), external=Constant(0.5),
               environment=Atom(0.0))  # valid


def run_from_start(kernel, n, initial=Uniform(0.0, 1.0), seed=0,
                   **kw):
    """Simulate the kernel to t = 1; return the opinions at t = 0 and the
    final state."""
    cfg = SimConfig(n=n, kernel=kernel, initial=initial, horizon=1.0,
                    snapshot_times=(0.0,), seed=seed, **kw)
    snaps, state = run_with_state(cfg)
    return snaps[0], state


def test_internal_weight_evaluates_deterministic_laws():
    k = KernelSpec(alpha=1.0, internal=BoundedConfidence(0.5, 1.0))
    # within the radius the weight is omega0: each update halves the gap
    x0, s = run_from_start(k, 2, Uniform(0.0, 0.9))
    assert s.update_count > 0
    assert abs(s.opinions[0] - s.opinions[1]) == pytest.approx(
        abs(x0[0] - x0[1]) * 0.5 ** s.update_count)
    # agents 0 or 2 apart: beyond the radius, or already equal
    apart = Atoms(AtomicMeasure.from_points([(0.0, 0.5), (2.0, 0.5)]))
    x0, s = run_from_start(k, 10, apart)
    assert s.update_count > 0
    np.testing.assert_array_equal(s.opinions, x0)


def test_apply_update_midpoint():
    # symmetric weight 1/2 with two agents: both land on the initial mean
    k = KernelSpec(alpha=1.0, internal=Constant(0.5))
    x0, s = run_from_start(k, 2, symmetric=True)
    assert s.update_count > 0
    np.testing.assert_allclose(s.opinions, [x0.mean(), x0.mean()])


def test_apply_update_zero_weight_is_identity():
    k = KernelSpec(alpha=0.5, internal=Constant(0.0),
                   external=Constant(0.0), environment=Atom(5.0))
    x0, s = run_from_start(k, 10)
    assert s.update_count > 0
    np.testing.assert_array_equal(s.opinions, x0)


def test_apply_update_environment_midpoint():
    # each environment update halves an agent's distance to the atom
    k = KernelSpec(alpha=0.0, internal=Constant(0.5),
                   external=Constant(0.5), environment=Atom(4.0))
    x0, s = run_from_start(k, 5)
    halvings = np.log2((4.0 - x0) / (4.0 - s.opinions))
    np.testing.assert_allclose(halvings, np.round(halvings), atol=1e-9)
    assert np.round(halvings).sum() == s.update_count > 0


@settings(max_examples=60, deadline=None)
@given(st.floats(-5, 5), st.floats(0.01, 5), st.integers(0, 2 ** 31))
def test_apply_update_stays_in_hull(a, width, seed):
    k = KernelSpec(alpha=0.5, internal=Gaussian(0.8, 2.0),
                   external=Constant(0.5), environment=Uniform(2.0, 4.0))
    _, s = run_from_start(k, 10, Uniform(a, a + width), seed)
    lo = min(a, 2.0)
    hi = max(a + width, 4.0)
    assert s.opinions.min() >= lo - 1e-12
    assert s.opinions.max() <= hi + 1e-12
