"""Directional moment system for the constant-weight gossip model with an
influential environment.

The moments m^(k)_t = int (x.z)^k dmu_t follow d/dt mu = F(mu) - mu read in
moment coordinates, with x, y ~ mu and e ~ psi independent:

    d/dt m^(k) = alpha E[((1-omega) x + omega y)^k]
                 + (1-alpha) E[((1-upsilon) x + upsilon e)^k] - m^(k).

Both expectations are binomial sums over the orders up to k, which meet
m^(k) only in -gamma_k m^(k), with
gamma_k = 1 - alpha ((1-omega)^k + omega^k) - (1-alpha)(1-upsilon)^k.
So the system is lower-triangular, and for alpha < 1 its stationary moments
follow order by order from d/dt m^(k) = 0 (checked against long-horizon
integration, and against c^k for a point-mass environment at c).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .meanfield import rk4_step, step_ends


class MomentError(ValueError):
    pass


@dataclass(frozen=True)
class MomentConfig:
    """Orders 1..K, horizon T and RK4 step dt of a moment-system run."""

    K: int = 8
    T: float = 10.0
    dt: float = 0.005

    def __post_init__(self):
        # the right-hand side scales order k by k!, which overflows past 170
        if not 1 <= self.K <= 170:
            raise MomentError("K must lie in [1, 170]")
        if not self.T >= 0:
            raise MomentError("T must be nonnegative")
        # every gamma_k lies in [0, 1], so dt <= 0.01 bounds dt * gamma_k
        # by 0.01 at every order
        if not 0 < self.dt <= 0.01:
            raise MomentError("dt must lie in (0, 0.01]")


@dataclass(frozen=True)
class MomentParams:
    alpha: float
    omega: float
    upsilon: float
    env_moments: tuple        # n^(k), k = 1..K (ignored when alpha = 1)
    initial_moments: tuple    # m^(k)_0, k = 1..K
    K: int

    def __post_init__(self):
        for name in ("alpha", "omega", "upsilon"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise MomentError(f"{name} must lie in [0,1]")
        if self.K < 1:
            raise MomentError("K must be >= 1")
        if len(self.initial_moments) != self.K:
            raise MomentError("need K initial moments")
        env = tuple(float(v) for v in self.env_moments)
        if self.alpha < 1.0 and len(env) != self.K:
            raise MomentError("need K environment moments when alpha < 1")
        object.__setattr__(self, "env_moments", env)
        object.__setattr__(self, "initial_moments",
                           tuple(float(v) for v in self.initial_moments))

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

    def row(self, k: int) -> np.ndarray:
        return self.values[k - 1]

    def jensen_violation(self) -> float:
        """Max of (m^(1))^2 - m^(2) over stored times (<= 0 for genuine
        probability measures); requires K >= 2."""
        if self.values.shape[0] < 2:
            raise MomentError("Jensen check needs K >= 2")
        return float(np.max(self.values[0] ** 2 - self.values[1]))


def gamma_k(p: MomentParams, k: int) -> float:
    """Relaxation rate of the order-k moment."""
    if k < 1:
        raise MomentError("k must be >= 1")
    a, w, u = p.alpha, p.omega, p.upsilon
    return 1.0 - a * ((1.0 - w) ** k + w ** k) - (1.0 - a) * (1.0 - u) ** k


def moment_rhs(p: MomentParams):
    """The right-hand side m -> d/dt m for m = (m^(1), ..., m^(K)). With
    m^(0) = n^(0) = 1, each binomial sum is k! conv(c^j m^(j) / j!,
    d^j m^(j) / j!)_k, with (c, d) = (1-omega, omega) against the opinions
    and (1-upsilon, upsilon) against the environment moments n^(j)."""
    K = p.K
    fact = np.array([float(factorial(j)) for j in range(K + 1)])

    # with a trailing zero, np.convolve sums each order k <= K alike for any
    # K (a partial overlap), so orders 1..K' do not depend on K, to the bit
    def scaled(c):
        return np.append(c ** np.arange(K + 1) / fact, 0.0)

    keep, move = scaled(1.0 - p.omega), scaled(p.omega)
    env_keep = scaled(1.0 - p.upsilon)
    # with alpha = 1 the environment term vanishes and n^(j) may be absent
    n = p.env_moments if p.alpha < 1.0 else np.zeros(K)
    one, zero = np.ones(1), np.zeros(1)
    env = scaled(p.upsilon) * np.concatenate((one, n, zero))

    def rhs(m):
        mm = np.concatenate((one, m, zero))
        f = p.alpha * np.convolve(mm * keep, mm * move) \
            + (1.0 - p.alpha) * np.convolve(mm * env_keep, env)
        return fact[1:] * f[1:K + 1] - m

    return rhs


def integrate_moments(p: MomentParams, T: float,
                      dt: float = MomentConfig.dt) -> MomentTrajectory:
    """Solve the triangular moment system by classical RK4, with one row
    at t = 0 and one at each end of meanfield.step_ends(T, dt), so the last
    row is at T.

    The lower-triangular structure means the first K' rows are identical
    whatever K >= K' is used.
    """
    MomentConfig(p.K, T, dt)
    rhs = moment_rhs(p)
    guard = 10.0 * p.moment_scale() ** np.arange(1, p.K + 1)
    times = np.concatenate(([0.0], step_ends(T, dt)))
    values = np.empty((p.K, times.size))
    m = np.array(p.initial_moments)
    values[:, 0] = m
    for i, h in enumerate(np.diff(times).tolist(), start=1):
        m = rk4_step(rhs, m, h)
        if np.any(np.abs(m) > guard):
            raise MomentError("moment blow-up: check params")
        values[:, i] = m
    return MomentTrajectory(times, values)


def limit_moments(p: MomentParams) -> list[float]:
    """Stationary moments for alpha < 1: m^(1) = n^(1), and order k solves
    rhs(m)_k = 0 from the orders below it, m^(k) = rhs(m^(1..k-1), 0)_k /
    gamma_k. Independent of the initial moments by construction."""
    if p.alpha >= 1.0:
        raise MomentError("limit recursion requires alpha < 1")
    for k in range(1, p.K + 1):
        if gamma_k(p, k) <= 0.0:
            raise MomentError(f"gamma_{k} must be positive for the recursion")
    rhs = moment_rhs(p)
    out = np.zeros(p.K)
    out[0] = p.env_moments[0]
    for k in range(2, p.K + 1):
        out[k - 1] = rhs(out)[k - 1] / gamma_k(p, k)
    return out.tolist()
