"""Tests for the triangular moment ODE system and its stationary limits."""

from math import comb

import numpy as np
import pytest

from gossipfield.kernels import Bump, env_moment
from gossipfield.meanfield import MAX_STEPS, step_ends
from gossipfield.moments import (MomentConfig, MomentError, MomentParams,
                                 forcing, gamma_k, integrate_moments,
                                 limit_moments)


def rk4_step(f, y, h):
    """One classical RK4 step of length h for dy/dt = f(y): the oracle of
    the order-by-order moment integrator."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def params(alpha=0.5, omega=0.5, upsilon=0.5, K=4, env=None, init=None):
    if env is None:
        env = tuple(env_moment(Bump(), k) for k in range(1, K + 1))
    if init is None:
        init = tuple(5.0 ** k for k in range(1, K + 1))  # delta at 5
    return MomentParams(alpha=alpha, omega=omega, upsilon=upsilon,
                        env_moments=tuple(env), initial_moments=tuple(init))


# ---------------------------------------------------------------------------
# parameter validation


def test_params_validation():
    with pytest.raises(MomentError):
        params(alpha=1.2)
    with pytest.raises(MomentError, match="K environment moments"):
        MomentParams(0.5, 0.5, 0.5, (1.0,), (1.0, 2.0))
    with pytest.raises(MomentError, match="at least one initial moment"):
        MomentParams(1.0, 0.5, 0.5, (), ())


def test_moment_config_validation():
    MomentConfig(8, 0.0, 0.01)  # dt = 0.01 is allowed
    MomentConfig(8, MAX_STEPS * 2.0 ** -7, 2.0 ** -7)  # and MAX_STEPS steps
    for K, T, dt in ((0, 1.0, 0.005), (171, 1.0, 0.005), (8, -1.0, 0.005),
                     (8, 1.0, 0.0), (8, 1.0, -0.01), (8, 1.0, 0.02),
                     (8, (MAX_STEPS + 1) * 2.0 ** -7, 2.0 ** -7),
                     (8, 1e12, 0.005), (8, 1.0, 1e-12)):
        with pytest.raises(MomentError):
            MomentConfig(K, T, dt)


# ---------------------------------------------------------------------------
# gamma_k and the right-hand side


def moment_rhs(p, m):
    """d/dt m from the shared binomial sum: g_k - gamma_k m^(k)."""
    mm = np.concatenate(([1.0], m))
    return np.array([forcing(p, k, mm) - gamma_k(p, k) * mm[k]
                     for k in range(1, p.K + 1)])


def test_gamma_examples():
    assert gamma_k(params(alpha=1.0), 2) == pytest.approx(0.5)
    p = params(alpha=0.3, omega=0.2, upsilon=0.7)
    # order 1 always reduces to (1-alpha) * upsilon
    assert gamma_k(p, 1) == pytest.approx(0.7 * 0.7)
    assert gamma_k(params(alpha=0.0, upsilon=1.0), 5) == pytest.approx(1.0)


# With m^(2) = 0 the order-2 right-hand side is f_2 plus the environment
# source (1-alpha) upsilon^2 n^(2).


def test_f2_internal_only():
    p = params(alpha=1.0, omega=0.5)
    a = 3.0
    rhs = moment_rhs(p, np.array([a, 0.0, 0.0, 0.0]))
    assert rhs[1] == pytest.approx(a * a / 2.0)


def test_f2_external_only():
    p = params(alpha=0.0, upsilon=0.5, env=(2.0, 4.0, 8.0, 16.0))
    a = 3.0
    rhs = moment_rhs(p, np.array([a, 0.0, 0.0, 0.0]))
    assert rhs[1] == pytest.approx(a * 2.0 / 2.0 + 0.5 ** 2 * 4.0)


@pytest.mark.parametrize("alpha, omega, upsilon, x, z", [
    (0.5, 0.5, 0.5, 5.0, 3.0), (0.3, 0.2, 0.7, -1.5, 2.5),
    (0.0, 0.9, 0.1, 0.4, -0.8), (1.0, 0.3, 0.6, 2.0, 7.0)])
def test_rhs_of_point_masses(alpha, omega, upsilon, x, z):
    # mu = delta_x against environment delta_z: peer interactions leave
    # delta_x in place, environment ones move it to (1-upsilon) x + upsilon z
    K = 8
    k = np.arange(1, K + 1)
    env = z ** k if alpha < 1.0 else ()
    p = params(alpha=alpha, omega=omega, upsilon=upsilon, K=K, env=env)
    expect = (1.0 - alpha) * (((1.0 - upsilon) * x + upsilon * z) ** k
                              - x ** k)
    scale = max(abs(x), abs(z)) ** k
    np.testing.assert_allclose(moment_rhs(p, x ** k), expect,
                               rtol=0, atol=1e-13 * scale.max())


def test_rhs_matches_binomial_sums():
    # reference: the binomial expansions written out order by order
    rng = np.random.default_rng(3)
    K, a, w, u = 7, 0.4, 0.3, 0.8
    m = rng.normal(size=K) * 2.0 ** np.arange(1, K + 1)
    n = rng.normal(size=K) * 3.0 ** np.arange(1, K + 1)
    p = params(alpha=a, omega=w, upsilon=u, K=K, env=n)
    mm, nn = np.concatenate(([1.0], m)), np.concatenate(([1.0], n))
    expect = [sum(comb(k, j) * (a * (1 - w) ** j * w ** (k - j) * mm[k - j]
                                + (1 - a) * (1 - u) ** j * u ** (k - j)
                                * nn[k - j]) * mm[j]
                  for j in range(k + 1)) - mm[k]
              for k in range(1, K + 1)]
    np.testing.assert_allclose(moment_rhs(p, m), expect, rtol=1e-13,
                               atol=1e-13 * np.abs(m).max())


# ---------------------------------------------------------------------------
# trajectory integration


def test_first_moment_constant_when_alpha_one():
    p = params(alpha=1.0, K=2)
    traj = integrate_moments(p, 5.0)
    np.testing.assert_allclose(traj.values[0], p.initial_moments[0],
                               atol=1e-12)


def test_first_moment_closed_form():
    p = params()  # alpha = omega = upsilon = 1/2, so rate 1/4
    traj = integrate_moments(p, 10.0)
    n1 = p.env_moments[0]
    expect = np.exp(-0.25 * traj.times) * 5.0 \
        + (1 - np.exp(-0.25 * traj.times)) * n1
    np.testing.assert_allclose(traj.values[0], expect, atol=1e-10)


def test_second_moment_closed_form_pure_averaging():
    # with alpha = 1 and constant omega the order-2 equation is scalar
    # linear: dm2/dt = -gamma2 m2 + 2 w(1-w) m1^2 with m1 frozen
    p = params(alpha=1.0, omega=0.3, K=2,
               init=(2.0, 5.0), env=(0.0, 0.0))
    g2 = gamma_k(p, 2)
    c = 2 * 0.3 * 0.7 * 4.0 / g2
    traj = integrate_moments(p, 8.0)
    expect = c + (5.0 - c) * np.exp(-g2 * traj.times)
    np.testing.assert_allclose(traj.values[1], expect, atol=1e-9)


def test_jensen_invariant_along_trajectory():
    traj = integrate_moments(params(K=4), 10.0)
    # (m^(1))^2 <= m^(2) for a probability measure
    assert np.max(traj.values[0] ** 2 - traj.values[1]) <= 1e-10


def test_triangularity():
    p_full = params(K=6)
    p_head = params(K=3)
    t_full = integrate_moments(p_full, 3.0)
    t_head = integrate_moments(p_head, 3.0)
    np.testing.assert_array_equal(t_full.values[:3], t_head.values)


def binomial_rhs(p):
    """The full right-hand side, m^(k) terms included, written out from the
    binomial expansions: sum_j C(k,j) m^(j) [alpha (1-w)^j w^(k-j) m^(k-j)
    + (1-alpha) (1-u)^j u^(k-j) n^(k-j)] - m^(k), with m^(0) = n^(0) = 1."""
    K, a, w, u = p.K, p.alpha, p.omega, p.upsilon
    n = np.concatenate(([1.0], p.env_moments if a < 1.0 else np.zeros(K)))
    peer, env = np.zeros((K + 1, K + 1)), np.zeros((K + 1, K + 1))
    for k in range(1, K + 1):
        for j in range(k + 1):
            peer[k, j] = a * comb(k, j) * (1 - w) ** j * w ** (k - j)
            env[k, j] = (1 - a) * comb(k, j) * (1 - u) ** j * u ** (k - j) \
                * n[k - j]
    lag = np.maximum(np.arange(K + 1)[:, None] - np.arange(K + 1), 0)

    def rhs(m):
        mm = np.concatenate(([1.0], m))
        return ((peer * mm[lag] + env) * mm).sum(axis=1)[1:] - m

    return rhs


@pytest.mark.parametrize("alpha, omega, K, T, dt", [
    (0.5, 0.5, 8, 100.0, 0.01),   # the benchmark's moment config
    (1.0, 0.3, 2, 10.0, 0.005),   # no environment
    (1.0, 0.0, 4, 10.0, 0.005),   # every gamma_k = 0
    (0.5, 0.5, 4, 1.0, 0.003),    # the last step is short
    (0.3, 0.2, 1, 10.0, 0.01),    # a single order
])
def test_integrate_matches_rk4_of_the_coupled_system(alpha, omega, K, T, dt):
    # oracle: rk4_step over the whole vector, one step at a time
    p = params(alpha=alpha, omega=omega, K=K,
               init=tuple(5.0 ** k / (k + 1) for k in range(1, K + 1)))
    traj = integrate_moments(p, T, dt)
    np.testing.assert_array_equal(traj.times,
                                  np.concatenate(([0.0], step_ends(T, dt))))
    np.testing.assert_array_equal(traj.values[:, 0], p.initial_moments)
    rhs = binomial_rhs(p)
    m = np.array(p.initial_moments)
    expect = [m]
    for h in np.diff(traj.times):
        m = rk4_step(rhs, m, h)
        expect.append(m)
    np.testing.assert_allclose(traj.values, np.transpose(expect), rtol=1e-12,
                               atol=0)


def test_a_priori_moment_bound():
    p = params(K=5)
    M = p.moment_scale()
    traj = integrate_moments(p, 10.0)
    for k in range(1, 6):
        assert np.max(np.abs(traj.values[k - 1])) <= M ** k * (1 + 1e-9)


def test_dt_guard():
    with pytest.raises(MomentError, match="dt"):
        integrate_moments(params(), 1.0, dt=0.5)
    assert integrate_moments(params(), 1.0, dt=0.01).times[-1] == 1.0
    # dt = 0.003 does not divide 1: the last step is shortened to land on T
    assert integrate_moments(params(), 1.0, dt=0.003).times[-1] == 1.0


@pytest.mark.parametrize("initial", [(np.nan, 1.0), (np.inf, 1.0),
                                     (1.0, np.inf, 1.0)])
def test_blow_up_guard_catches_nan(initial):
    # a moment that is not finite leaves nan in the orders above it, which
    # no bound |m| > guard catches
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(MomentError, match="blow-up"):
            integrate_moments(MomentParams(1.0, 0.5, 0.0, (), initial), 1.0,
                              0.01)


def test_moment_scale_bound():
    p = MomentParams(0.5, 0.5, 0.5, (2.0, 4.0), (3.0, 9.0))
    # largest k-th-root over initial and environment moments
    assert p.moment_scale() == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# stationary limits


def test_limit_first_moment_is_environment_mean():
    p = params()
    lim = limit_moments(p)
    assert lim[0] == p.env_moments[0]


def test_limit_requires_alpha_below_one():
    with pytest.raises(MomentError, match="alpha < 1"):
        limit_moments(params(alpha=1.0))


def test_limit_point_mass_environment_recovers_powers():
    # environment concentrated at c forces the stationary law delta_c,
    # whose k-th moment is c^k; this pins down the recursion exactly
    c = 1.7
    K = 8
    p = params(env=tuple(c ** k for k in range(1, K + 1)), K=K)
    lim = limit_moments(p)
    for k in range(1, K + 1):
        assert lim[k - 1] == pytest.approx(c ** k, abs=1e-10 * c ** k)


def test_limit_independent_of_initial_moments():
    K = 5
    env = tuple(env_moment(Bump(), k) for k in range(1, K + 1))
    a = limit_moments(params(env=env, init=tuple([1.0] * K), K=K))
    b = limit_moments(params(env=env, init=tuple(9.0 ** k
                                                 for k in range(1, K + 1)),
                             K=K))
    assert a == b


def test_limit_matches_long_horizon_integration():
    p = params(K=3)
    lim = limit_moments(p)
    traj = integrate_moments(p, 200.0)
    for k in range(1, 4):
        assert traj.values[k - 1][-1] == pytest.approx(lim[k - 1], abs=1e-6)
