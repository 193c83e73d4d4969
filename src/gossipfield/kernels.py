"""Interaction kernels: who moves where after a pairwise or environment
interaction.

A kernel mixes two branches. With probability alpha the activated opinion x
moves to (1-w) x + w y toward the observed opinion y, with trust weight w
drawn from the internal weight law. With probability 1 - alpha it moves to
(1-u) x + u e toward a signal e drawn from a static environment
distribution, with weight u from the external law.

Weight laws are either deterministic functions of the distance |x - y|
(constant, bounded confidence, Gaussian decay) or state-independent finite
mixtures; both admit exact branch enumeration, which the deterministic
solver relies on.

The environment and the initial law are laws on the line of one family:
Atom, Atoms, Uniform, Grid and Bump, each with one support (env_support),
moment (env_moment) and sampler (make_env_sampler), and any law may play
either role. The grid solver reads a law as atoms (env_atoms) in the
environment, and as point masses or a sampled density in the start
(experiments.initial_grid); both readings take every law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import AtomicMeasure, GridMeasure1D, moment


class KernelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# weight laws


@dataclass(frozen=True)
class Constant:
    omega: float

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise KernelError("constant weight must lie in [0,1]")


@dataclass(frozen=True)
class BoundedConfidence:
    """Deffuant-Weisbuch weight: omega0 if |x-y| <= radius, else 0."""

    omega0: float
    radius: float

    def __post_init__(self):
        if not 0.0 < self.omega0 < 1.0:
            raise KernelError("bounded-confidence weight must lie in (0,1)")
        if self.radius <= 0:
            raise KernelError("confidence radius must be positive")


@dataclass(frozen=True)
class Gaussian:
    """Gaussian decay weight: omega0 * exp(-|x-y|^2 / sigma^2)."""

    omega0: float
    sigma: float

    def __post_init__(self):
        if not 0.0 <= self.omega0 <= 1.0:
            raise KernelError("gaussian weight must lie in [0,1]")
        if self.sigma <= 0:
            raise KernelError("sigma must be positive")
        # the weight divides by sigma ** 2, which must be a positive float:
        # a square that underflows to 0 makes the weight at distance 0 nan,
        # and the float power raises where the square overflows
        if not 0 < self.sigma * self.sigma < np.inf:
            raise KernelError(f"sigma = {self.sigma:g} has a square that "
                              "underflows or overflows a float")


@dataclass(frozen=True)
class FiniteMixture:
    """State-independent random weight: value omegas[j] with prob probs[j]."""

    omegas: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.omegas) != len(self.probs) or not self.omegas:
            raise KernelError("mixture needs matching nonempty omega/prob lists")
        if any(not 0.0 <= w <= 1.0 for w in self.omegas):
            raise KernelError("mixture weights must lie in [0,1]")
        if any(p < 0 for p in self.probs):
            raise KernelError("mixture probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise KernelError("mixture probabilities must sum to 1")


WeightLaw = Constant | BoundedConfidence | Gaussian | FiniteMixture


def weight_value(law: WeightLaw, dist) -> np.ndarray:
    """Deterministic weights at the distances `dist`, elementwise (not
    defined for mixtures). The simulator applies it to the distances of
    each conflict-free run of jumps, the grid solver to cell distances."""
    if isinstance(law, Constant):
        return np.broadcast_to(law.omega, np.shape(dist))
    if isinstance(law, BoundedConfidence):
        return (np.asarray(dist) <= law.radius) * law.omega0
    if isinstance(law, Gaussian):
        return law.omega0 * np.exp(np.square(dist) / -law.sigma ** 2)
    raise KernelError("mixture law has no deterministic value")


def draw_mixture(law: FiniteMixture, rng: np.random.Generator,
                 size: int) -> np.ndarray:
    """`size` independent weights of a finite mixture: omegas[j] with
    probability probs[j], by inverse CDF on one uniform each."""
    cdf = np.cumsum(law.probs)
    j = np.searchsorted(cdf, rng.random(size), side="right")
    return np.asarray(law.omegas, dtype=float)[np.minimum(j, cdf.size - 1)]


# ---------------------------------------------------------------------------
# laws on the line: the initial law and the environment


@dataclass(frozen=True)
class Atom:
    """A point mass at z."""

    z: float


@dataclass(frozen=True)
class Atoms:
    """A normalized finite weighted point set."""

    measure: AtomicMeasure

    def __post_init__(self):
        if not self.measure.normalized:
            raise KernelError("atomic law must be normalized")


@dataclass(frozen=True)
class Uniform:
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise KernelError("uniform law needs b > a")


@dataclass(frozen=True)
class Grid:
    """The piecewise-uniform density of a normalized grid's cells."""

    grid: GridMeasure1D

    def __post_init__(self):
        if not self.grid.normalized:
            raise KernelError("grid law must be normalized")


@dataclass(frozen=True)
class Bump:
    """Smooth bump density proportional to exp(-(1-(x-3)^2)^-1) on (2,4)."""


Law = Atom | Atoms | Uniform | Grid | Bump

_BUMP_NODES = 1 << 13  # Simpson intervals; the bump is C-infinity


def _simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson rule along the last axis of y, sampled at an odd
    number of equally spaced nodes h apart."""
    return h / 3.0 * (y[..., 0] + y[..., -1]
                      + 4.0 * y[..., 1:-1:2].sum(axis=-1)
                      + 2.0 * y[..., 2:-1:2].sum(axis=-1))


def _bump_unnormalized(x: np.ndarray) -> np.ndarray:
    u = 1.0 - (x - 3.0) ** 2
    out = np.zeros_like(x)
    inside = u > 0
    out[inside] = np.exp(-1.0 / u[inside])
    return out


def env_support(law: Law) -> tuple[float, float]:
    """The hull of the support of any law, the initial law's too. (The
    name is from when only the environment was a law; the bench tracer
    wraps the function by it.)"""
    if isinstance(law, Atom):
        return (law.z, law.z)
    if isinstance(law, Atoms):
        x = law.measure.positions
        return (float(x.min()), float(x.max()))
    if isinstance(law, Uniform):
        return (law.a, law.b)
    if isinstance(law, Grid):
        return (law.grid.lo, law.grid.hi)
    if isinstance(law, Bump):
        return (2.0, 4.0)
    raise KernelError(f"not a law on the line: {law!r}")


def density_moment(lo, hi, h, k: int):
    """k-th moment of the uniform law on [lo, hi], of width h: the integral
    of x^k over [lo, hi], over h. lo and hi may be arrays of cells."""
    return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * h)


def env_moment(law: Law, k: int) -> float:
    """k-th moment of any law, the initial law's too: exact for atoms,
    intervals and grids (a grid read as the piecewise-uniform density it
    is sampled from), composite Simpson on 2^13 intervals for the bump."""
    if k < 1:
        raise KernelError("moment order must be >= 1")
    if isinstance(law, Atom):
        return law.z ** k
    if isinstance(law, Atoms):
        return moment(law.measure, k)
    if isinstance(law, Uniform):
        return density_moment(law.a, law.b, law.b - law.a, k)
    if isinstance(law, Grid):
        g, edges = law.grid, law.grid.edges
        return float(np.dot(g.cells,
                            density_moment(edges[:-1], edges[1:], g.h, k)))
    if isinstance(law, Bump):
        x = np.linspace(2.0, 4.0, _BUMP_NODES + 1)
        f = _bump_unnormalized(x)
        return float(_simpson(f * x ** k, 2.0 / _BUMP_NODES)
                     / _simpson(f, 2.0 / _BUMP_NODES))
    raise KernelError(f"not a law on the line: {law!r}")


def env_atoms(law: Law, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Realize any law as grid atoms (positions, masses) for the
    deterministic solver. Atoms are exact, their own positions and
    weights; densities use the centres of m cells. A grid law is the
    piecewise-uniform density it is sampled from: each of its cells splits
    into ceil(m / g.m) equal ones."""
    if isinstance(law, Atom):
        return np.array([law.z]), np.array([1.0])
    if isinstance(law, Atoms):
        return law.measure.positions, law.measure.weights
    if isinstance(law, Uniform):
        g = GridMeasure1D.uniform(law.a, law.b, m)
    elif isinstance(law, Grid):
        split = -(-m // law.grid.m)
        g = GridMeasure1D(law.grid.lo, law.grid.hi,
                          np.repeat(law.grid.cells / split, split))
    elif isinstance(law, Bump):
        g = env_bump_grid(m)
    else:
        raise KernelError(f"not a law on the line: {law!r}")
    return g.centers, np.asarray(g.cells)


def env_bump_grid(m: int) -> GridMeasure1D:
    """Bump density realized as a normalized histogram on (2,4), each
    cell's mass by Simpson on 9 nodes (smooth integrand)."""
    h = 2.0 / m
    i = np.arange(m)
    x = np.linspace(2.0 + i * h, 2.0 + (i + 1) * h, 9, axis=-1)
    cells = _simpson(_bump_unnormalized(x), h / 8.0)
    cells /= cells.sum()
    return GridMeasure1D(2.0, 4.0, cells)


# the bump is sampled from this many cells
_SAMPLER_CELLS = 1024


def sampling_grid(law: Grid | Bump) -> GridMeasure1D:
    """The grid a density law is sampled from: a grid law's own, the bump
    on _SAMPLER_CELLS cells."""
    return law.grid if isinstance(law, Grid) else env_bump_grid(
        _SAMPLER_CELLS)


def make_env_sampler(law: Law):
    """Return sampler(rng, size) -> ndarray of `size` independent draws
    from any law, the initial law's too. An atom draws nothing, atoms make
    one rng.choice, an interval one rng.uniform; densities use the
    inverse-CDF sampler of their sampling_grid."""
    if isinstance(law, Atom):
        z = law.z
        return lambda rng, size: np.full(size, z)
    if isinstance(law, Atoms):
        x, p = law.measure.positions, law.measure.weights
        return lambda rng, size: x[rng.choice(p.size, size=size, p=p)]
    if isinstance(law, Uniform):
        a, b = law.a, law.b
        return lambda rng, size: rng.uniform(a, b, size)
    if isinstance(law, (Grid, Bump)):
        return sampling_grid(law).sampler()
    raise KernelError(f"not a law on the line: {law!r}")


# ---------------------------------------------------------------------------
# the full kernel


@dataclass(frozen=True)
class KernelSpec:
    """Full interaction kernel: mixture weight alpha, internal weight law,
    external weight law, and environment distribution."""

    alpha: float
    internal: WeightLaw
    external: WeightLaw = Constant(0.0)
    environment: Law | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise KernelError("alpha must lie in [0,1]")
        if self.alpha < 1.0 and self.environment is None:
            raise KernelError("environment required")

