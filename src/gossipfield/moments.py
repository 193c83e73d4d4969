"""Directional moment system for the constant-weight gossip model with an
influential environment.

The moments m^(k)_t = int (x.z)^k dmu_t follow d/dt mu = F(mu) - mu read in
moment coordinates, with x, y ~ mu and e ~ psi independent:

    d/dt m^(k) = alpha E[((1-omega) x + omega y)^k]
                 + (1-alpha) E[((1-upsilon) x + upsilon e)^k] - m^(k).

Both expectations are binomial sums over the orders up to k, which meet
m^(k) only in -gamma_k m^(k), with
gamma_k = 1 - alpha ((1-omega)^k + omega^k) - (1-alpha)(1-upsilon)^k.
So the system is lower-triangular: d/dt m^(k) = g_k - gamma_k m^(k), where
the forcing g_k (`forcing`) reads only the orders below k. For alpha < 1
its stationary moments follow order by order as m^(k) = g_k / gamma_k
(checked against long-horizon integration, and against c^k for a
point-mass environment at c).

The same structure lets classical RK4 of the coupled system run one order
at a time over the whole step grid. The RK4 stages of the orders below k
never see m^(k), so order k's four stage forcings are known at every step
once those orders are done. For a scalar equation linear in its unknown,
an RK4 step is then an affine map m_{n+1} = A_n m_n + B_n, whose
coefficients are computed for all steps at once, and order k's own stage
values, affine in m_n too, feed the orders above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .meanfield import MAX_STEPS, step_ends


class MomentError(ValueError):
    pass


@dataclass(frozen=True)
class MomentConfig:
    """Orders 1..K, horizon T and RK4 step dt of a moment-system run."""

    K: int = 8
    T: float = 10.0
    dt: float = 0.005

    def __post_init__(self):
        # K is capped at 170, the largest order whose k! a float holds
        if not 1 <= self.K <= 170:
            raise MomentError("K must lie in [1, 170]")
        if not self.T >= 0:
            raise MomentError("T must be nonnegative")
        # every gamma_k lies in [0, 1], so dt <= 0.01 bounds dt * gamma_k
        # by 0.01 at every order
        if not 0 < self.dt <= 0.01:
            raise MomentError("dt must lie in (0, 0.01]")
        if self.T / self.dt > MAX_STEPS:
            raise MomentError(f"T / dt must be at most {MAX_STEPS:g} steps")


@dataclass(frozen=True)
class MomentParams:
    """The constant weights and the moments of orders 1..K, where K is the
    number of initial moments."""

    alpha: float
    omega: float
    upsilon: float
    env_moments: tuple        # n^(k), k = 1..K (ignored when alpha = 1)
    initial_moments: tuple    # m^(k)_0, k = 1..K

    def __post_init__(self):
        for name in ("alpha", "omega", "upsilon"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise MomentError(f"{name} must lie in [0,1]")
        if len(self.initial_moments) == 0:
            raise MomentError("need at least one initial moment")
        env = tuple(float(v) for v in self.env_moments)
        if self.alpha < 1.0 and len(env) != self.K:
            raise MomentError("need K environment moments when alpha < 1")
        object.__setattr__(self, "env_moments", env)
        object.__setattr__(self, "initial_moments",
                           tuple(float(v) for v in self.initial_moments))

    @property
    def K(self) -> int:
        return len(self.initial_moments)

    def moment_scale(self) -> float:
        """M with |m^(k)| <= M^k a priori, from initial and environment
        moments."""
        vals = [abs(v) ** (1.0 / (i + 1))
                for i, v in enumerate(self.initial_moments) if v != 0]
        vals += [abs(v) ** (1.0 / (i + 1))
                 for i, v in enumerate(self.env_moments) if v != 0]
        return max(vals, default=1.0)


@dataclass(frozen=True)
class MomentTrajectory:
    times: np.ndarray
    values: np.ndarray  # shape (K, len(times)); row k-1 is m^(k)


def gamma_k(p: MomentParams, k: int) -> float:
    """Relaxation rate of the order-k moment."""
    if k < 1:
        raise MomentError("k must be >= 1")
    a, w, u = p.alpha, p.omega, p.upsilon
    return 1.0 - a * ((1.0 - w) ** k + w ** k) - (1.0 - a) * (1.0 - u) ** k


def forcing(p: MomentParams, k: int, m: np.ndarray):
    """g_k = d/dt m^(k) + gamma_k m^(k): the two binomial sums without
    their m^(k) terms, from m[j] = m^(j) for j < k along the first axis,
    with m[0] = 1. The trailing axes, if any, are carried along: they hold
    RK4 stages of many steps in integrate_moments."""
    a, w, u = p.alpha, p.omega, p.upsilon
    # peer sum over j = 1..k-1: the j = 0 and j = k terms hold m^(k)
    peer = [a * comb(k, j) * (1.0 - w) ** j * w ** (k - j)
            for j in range(1, k)]
    g = np.einsum("j,j...,j...->...", peer, m[1:k], m[k - 1:0:-1])
    # environment sum over j = 0..k-1 (n^(0) = 1): j = k holds m^(k); with
    # alpha = 1 it vanishes and n^(j) may be absent
    if a < 1.0:
        n = p.env_moments
        env = [(1.0 - a) * comb(k, j) * (1.0 - u) ** j * u ** (k - j)
               * n[k - j - 1] for j in range(k)]
        g = g + np.einsum("j,j...->...", env, m[:k])
    return g


# steps per block of integrate_moments: its stage arrays hold
# 4 (K + 1) * _BLOCK_STEPS floats, whatever the horizon
_BLOCK_STEPS = 4096


def _affine_scan(m: float, a: np.ndarray, b: np.ndarray) -> list[float]:
    """m_1..m_N of the recurrence m_{n+1} = a_n m_n + b_n from m_0 = m."""
    out = []
    for an, bn in zip(a.tolist(), b.tolist()):
        m = an * m + bn
        out.append(m)
    return out


def integrate_moments(p: MomentParams, T: float,
                      dt: float = MomentConfig.dt) -> MomentTrajectory:
    """Solve the triangular moment system by classical RK4, with one row
    at t = 0 and one at each end of meanfield.step_ends(T, dt), so the last
    row is at T.

    The steps are taken one order at a time over a block of steps, which is
    RK4 of the coupled system: the stage values of the orders below k do
    not depend on m^(k), so g_k at each of order k's four stages is
    `forcing` of theirs. With z = gamma_k h, RK4 of dm/dt = g - gamma_k m
    gives the stages m, P1 m + Q1, P2 m + Q2, P3 m + Q3 and the step
    m + (h/6)(k1 + 2 k2 + 2 k3 + k4) = A m + B, with

        P1 = 1 - z/2,        Q1 = (h/2) g1,
        P2 = 1 - (z/2) P1,   Q2 = (h/2)(g2 - gamma_k Q1),
        P3 = 1 - z P2,       Q3 = h (g3 - gamma_k Q2),
        A = 1 - (z/6)(1 + 2 P1 + 2 P2 + P3),
        B = (h/6)(g1 + 2 g2 + 2 g3 + g4 - gamma_k (2 Q1 + 2 Q2 + Q3)).

    Order k never reads the orders above it, so the first K' rows are
    identical whatever K >= K' is used.
    """
    MomentConfig(p.K, T, dt)
    K = p.K
    guard = 10.0 * p.moment_scale() ** np.arange(1, K + 1)
    gammas = [gamma_k(p, k) for k in range(1, K + 1)]
    times = np.concatenate(([0.0], step_ends(T, dt)))
    steps = np.diff(times)
    values = np.empty((K, times.size))
    values[:, 0] = p.initial_moments
    for s0 in range(0, steps.size, _BLOCK_STEPS):
        s1 = min(s0 + _BLOCK_STEPS, steps.size)
        h = steps[s0:s1]
        # stages[j, i] is m^(j) at RK4 stage i + 1 of each step; m^(0) = 1
        stages = np.ones((K + 1, 4, h.size))
        for k in range(1, K + 1):
            g1, g2, g3, g4 = forcing(p, k, stages)
            gam = gammas[k - 1]
            z = gam * h
            p1 = 1.0 - 0.5 * z
            q1 = (0.5 * h) * g1
            p2 = 1.0 - (0.5 * z) * p1
            q2 = (0.5 * h) * (g2 - gam * q1)
            p3 = 1.0 - z * p2
            q3 = h * (g3 - gam * q2)
            a = 1.0 - (z / 6.0) * (1.0 + 2.0 * p1 + 2.0 * p2 + p3)
            b = (h / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4
                             - gam * (2.0 * q1 + 2.0 * q2 + q3))
            row = values[k - 1]
            row[s0 + 1:s1 + 1] = _affine_scan(float(row[s0]), a, b)
            if not np.all(np.abs(row[s0 + 1:s1 + 1]) <= guard[k - 1]):
                raise MomentError("moment blow-up: check params")
            m = row[s0:s1]
            stages[k] = (m, p1 * m + q1, p2 * m + q2, p3 * m + q3)
    return MomentTrajectory(times, values)


def limit_moments(p: MomentParams) -> list[float]:
    """Stationary moments for alpha < 1: m^(1) = n^(1), and order k solves
    d/dt m^(k) = 0 from the orders below it, m^(k) = g_k / gamma_k.
    Independent of the initial moments by construction."""
    if p.alpha >= 1.0:
        raise MomentError("limit recursion requires alpha < 1")
    for k in range(1, p.K + 1):
        if gamma_k(p, k) <= 0.0:
            raise MomentError(f"gamma_{k} must be positive for the recursion")
    out = np.ones(p.K + 1)
    out[1] = p.env_moments[0]
    for k in range(2, p.K + 1):
        out[k] = forcing(p, k, out) / gamma_k(p, k)
    return out[1:].tolist()
