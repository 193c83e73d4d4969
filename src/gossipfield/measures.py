"""Measure representations: weighted atom sets, 1-D histograms, moments,
exact 1-D Wasserstein-1, and cluster extraction.

All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-10
WEIGHT_TOL = 1e-12


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite weighted point set on the line.

    positions and weights have shape (n,); the weights are nonnegative.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 1:
            raise MeasureError("atom positions must be 1-D")
        w = np.asarray(self.weights, dtype=float)
        if pos.shape[0] != w.shape[0]:
            raise MeasureError("positions and weights length mismatch")
        if np.any(w < 0):
            raise MeasureError("negative atom weight")
        pos.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def normalized(self) -> bool:
        return abs(self.total_mass - 1.0) <= WEIGHT_TOL

    def normalize(self) -> "AtomicMeasure":
        total = self.total_mass
        if total <= 0:
            raise MeasureError("empty measure")
        return AtomicMeasure(self.positions, self.weights / total)

    @staticmethod
    def from_points(points) -> "AtomicMeasure":
        """Build from a list of (position, weight) pairs."""
        pos = np.asarray([p for p, _ in points], dtype=float)
        w = np.asarray([m for _, m in points], dtype=float)
        return AtomicMeasure(pos, w)

    @staticmethod
    def empirical(samples: np.ndarray) -> "AtomicMeasure":
        samples = np.asarray(samples, dtype=float)
        n = samples.shape[0]
        return AtomicMeasure(samples, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class GridMeasure1D:
    """Histogram measure on a uniform 1-D grid: cell i holds mass cells[i]
    at center lo + (i + 1/2) h with h = (hi - lo) / m."""

    lo: float
    hi: float
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        if not self.hi > self.lo:
            raise MeasureError("grid needs hi > lo")
        if cells.size < 2:
            raise MeasureError("grid needs at least 2 cells")
        if np.any(cells < 0):
            raise MeasureError("negative cell mass")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def m(self) -> int:
        return self.cells.size

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / self.m

    @property
    def edges(self) -> np.ndarray:
        return self.lo + np.arange(self.m + 1) * self.h

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.m) + 0.5) * self.h

    @property
    def total_mass(self) -> float:
        return float(self.cells.sum())

    @property
    def normalized(self) -> bool:
        return abs(self.total_mass - 1.0) <= MASS_TOL

    def normalize(self) -> "GridMeasure1D":
        total = self.total_mass
        if total <= 0:
            raise MeasureError("empty measure: the cells hold no mass")
        return GridMeasure1D(self.lo, self.hi, self.cells / total)

    def sampler(self):
        """sampler(rng, size) -> `size` independent draws from the cells
        read as a piecewise-uniform density, by inverse CDF: one uniform
        per draw picks a cell, then one more per draw places the draw
        uniformly within its cell."""
        cdf = np.cumsum(self.cells)
        cdf /= cdf[-1]
        lo, h, last = self.lo, self.h, self.m - 1

        def sample(rng, size):
            i = np.searchsorted(cdf, rng.random(size), side="right")
            return lo + (np.minimum(i, last) + rng.random(size)) * h

        return sample

    def as_atoms(self) -> AtomicMeasure:
        """All cell mass placed at the cell center (first-moment exact for
        densities symmetric within each cell; O(h^2) error otherwise)."""
        return AtomicMeasure(self.centers, self.cells)

    @staticmethod
    def uniform(lo: float, hi: float, m: int,
                support: tuple[float, float] | None = None) -> "GridMeasure1D":
        """Uniform density over `support` (default: the whole grid),
        discretized by cell-overlap fractions."""
        if support is None:
            return GridMeasure1D(lo, hi, np.full(m, 1.0 / m))
        a, b = support
        h = (hi - lo) / m
        edges = lo + np.arange(m + 1) * h
        overlap = np.clip(np.minimum(edges[1:], b) - np.maximum(edges[:-1], a),
                          0.0, None)
        total = overlap.sum()
        if total <= 0:
            raise MeasureError("support does not intersect grid")
        return GridMeasure1D(lo, hi, overlap / total)


@dataclass(frozen=True)
class Cluster:
    """A contiguous mass concentration of a grid measure."""

    center: float
    weight: float
    extent: tuple[float, float]


def moment(m, k: int) -> float:
    """k-th moment: the integral of x^k."""
    if k < 1:
        raise MeasureError("moment order must be >= 1 (use total mass for k=0)")
    if isinstance(m, GridMeasure1D):
        m = m.as_atoms()
    if m.total_mass <= 0:
        raise MeasureError("empty measure")
    return float(np.dot(m.weights, m.positions ** k))


def variance(m) -> float:
    """Second central moment about the mean."""
    m1 = moment(m, 1)
    return moment(m, 2) - m1 * m1


@dataclass(frozen=True)
class SortedCDF:
    """A normalized 1-D measure prepared for W1: its knots x ascending, and
    cdf[j] and slope[j], the CDF and its slope after the first j knots
    (cdf[0] = 0). slope is None for atoms, whose CDF is flat between jumps.
    Preparing once saves the sort and cumsum for many W1 calls."""

    x: np.ndarray
    cdf: np.ndarray
    slope: np.ndarray | None = None


def sorted_cdf(m) -> SortedCDF:
    """The prepared form of an atomic measure, or of a grid read as atoms
    at its cell centres (returned as is when already prepared)."""
    if isinstance(m, SortedCDF):
        return m
    if not m.normalized:
        raise MeasureError("W1 requires normalized measures")
    if isinstance(m, GridMeasure1D):
        m = m.as_atoms()
    x, w = m.positions, m.weights
    if np.all(w == w[:1]):
        # equal weights (every empirical measure): their order does not
        # matter, so a plain sort gives the stable sort's arrays
        x = np.sort(x)
    else:
        order = np.argsort(x, kind="stable")
        x, w = x[order], w[order]
    return SortedCDF(x, np.concatenate(([0.0], np.cumsum(w))))


def density_cdf(g: GridMeasure1D) -> SortedCDF:
    """The prepared form of a grid read as a piecewise-uniform density: its
    m + 1 edges are the knots, and its CDF rises by cells[k] across cell k."""
    if not g.normalized:
        raise MeasureError("W1 requires normalized measures")
    return SortedCDF(g.edges, np.concatenate(([0.0, 0.0], np.cumsum(g.cells))),
                     np.concatenate(([0.0], g.cells / g.h, [0.0])))


def wasserstein1_1d(mu, nu) -> float:
    """Exact 1-D order-1 Wasserstein distance: the integral of |F_mu - F_nu|.
    Either argument may be a measure, read by `sorted_cdf`, or prepared."""
    a, b = sorted_cdf(mu), sorted_cdf(nu)
    # merge the knots by one stable sort, linear on two sorted runs
    z = np.concatenate((a.x, b.x))
    order = np.argsort(z, kind="stable")
    z = z[order]
    gaps = np.diff(z)
    # after the k-th merged knot, the count of each measure's knots so far
    # indexes its CDF; tied knots bound gaps of length 0. Each CDF is read
    # separately, so equal measures cancel exactly instead of leaving
    # interleaved-cumsum rounding residue.
    count = np.cumsum(order[:-1] < a.x.size)
    if a.slope is None and b.slope is None:
        diff = a.cdf[count]
        np.subtract(np.arange(1, count.size + 1), count, out=count)
        diff -= b.cdf[count]
        # in place: the live temporaries set a run's peak memory at 5e4
        # atoms; not np.dot, whose BLAS call starts a thread on long vectors
        np.abs(diff, out=diff)
        diff *= gaps
        return float(diff.sum())
    # F_a - F_b at both ends of each gap, where a linear CDF is read from
    # the knot that starts the gap; integrate |.| exactly, split at its zero
    other = np.arange(1, count.size + 1) - count
    d0 = a.cdf[count] - b.cdf[other]
    d1 = d0.copy()
    for f, k, sign in ((a, count, 1.0), (b, other, -1.0)):
        if f.slope is not None:
            x, slope = f.x[k - 1], sign * f.slope[k]
            d0 += (z[:-1] - x) * slope
            d1 += (z[1:] - x) * slope
    denom = np.maximum(np.abs(d0) + np.abs(d1), 1e-300)
    seg = np.where(d0 * d1 >= 0, 0.5 * (np.abs(d0) + np.abs(d1)),
                   0.5 * (d0 * d0 + d1 * d1) / denom)
    return float((gaps * seg).sum())


def wasserstein1_oracle(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Ground-truth W1 for small atomic instances by solving the
    transportation linear program exactly.

    Independent of wasserstein1_1d (LP on the cost matrix |x - y|, no CDF
    shortcut); limited to supports of at most 12 atoms each.
    """
    from scipy.optimize import linprog

    if mu.positions.size > 12 or nu.positions.size > 12:
        raise MeasureError("oracle is desk-scale only")
    if not (mu.normalized and nu.normalized):
        raise MeasureError("W1 requires normalized measures")
    a, b = mu.weights, nu.weights
    p = mu.positions.size
    q = nu.positions.size
    cost = np.abs(mu.positions[:, None] - nu.positions[None, :]).ravel()
    # Row sums = a, column sums = b; drop one redundant equality.
    A_eq = np.zeros((p + q, p * q))
    for i in range(p):
        A_eq[i, i * q:(i + 1) * q] = 1.0
    for j in range(q):
        A_eq[p + j, j::q] = 1.0
    b_eq = np.concatenate([a, b])
    # default HiGHS tolerances (~1e-7) leave O(1e-9) slack on instances
    # with nearly coincident atoms; tighten to the solver minimum (1e-10)
    # so the oracle resolves such instances exactly
    res = linprog(cost, A_eq=A_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise MeasureError(f"transport LP failed: {res.message}")
    return float(res.fun)


def detect_clusters(g: GridMeasure1D, mass_threshold: float,
                    gap_cells: int) -> list[Cluster]:
    """Extract mass clusters from a histogram.

    A cell is occupied if its mass exceeds mass_threshold / m (scale-free in
    the grid resolution). Occupied runs separated by fewer than gap_cells
    unoccupied cells are merged; merged runs with total weight at most
    mass_threshold are dropped. Clusters are returned sorted by center.
    """
    if not g.normalized:
        raise MeasureError("detect_clusters needs a normalized grid")
    if not 0 < mass_threshold < 1:
        raise MeasureError("mass_threshold must be in (0,1)")
    if gap_cells < 1:
        raise MeasureError("gap_cells must be >= 1")
    occupied = np.flatnonzero(g.cells > mass_threshold / g.m)
    # a cluster ends where the next occupied cell is more than gap_cells on
    cut = np.flatnonzero(np.diff(occupied) > gap_cells)
    starts = np.append(occupied[:1], occupied[cut + 1])
    ends = np.append(occupied[cut], occupied[-1:])
    centers = g.centers
    clusters = []
    for i, j in zip(starts.tolist(), ends.tolist()):
        w = float(g.cells[i:j + 1].sum())
        if w <= mass_threshold:
            continue
        c = float(np.dot(g.cells[i:j + 1], centers[i:j + 1]) / w)
        extent = (g.lo + i * g.h, g.lo + (j + 1) * g.h)
        clusters.append(Cluster(center=c, weight=w, extent=extent))
    return clusters


def checked_times(times, horizon: float, error, what="snapshot times",
                  bound="horizon") -> tuple:
    """The sampling times of a run to `horizon` as floats; None stands for
    11 equispaced times in [0, horizon]. Raises `error` unless horizon >= 0
    and the times are sorted within [0, horizon]."""
    if not horizon >= 0:
        raise error(f"{bound} must be nonnegative")
    if times is None:
        times = np.linspace(0.0, horizon, 11)
    times = tuple(float(s) for s in times)
    if any(s < 0 or s > horizon for s in times):
        raise error(f"{what} must lie in [0, {bound}]")
    if list(times) != sorted(times):
        raise error(f"{what} must be sorted")
    return times
