"""Deterministic integrator for the measure-valued dynamics
d/dt mu = F(mu) - mu on a uniform 1-D histogram.

F is the one-interaction pushforward of mu x mu (and mu x psi for the
environment branch) through the kernel. Every deposited point mass is split
linearly between its two bracketing cell centers, which preserves the mean
of each deposit exactly and the total mass to machine precision.

Because every supported weight law depends on the opinions only through
|x - y|, the pair double-sum decomposes by cell lag L: for a fixed lag the
deposit offset is constant. A lag plan, built once per grid, lists each
lag's deposits for every internal branch. The products m_i m_{i+L} are
formed once per lag and serve both orders of the pair, landing at
i + w(L) L and at i + L - w(L) L. The pairs that do not move (weight 0,
or beyond the confidence radius) add up to one stay term, a convolution
of the cells with the moved fractions. Constant weight 1/2 lands on the
half-step grid and is an exact discrete self-convolution instead, by FFT,
folded onto the centres in the spectrum.

The environment branch is linear in the cell masses. For external weight
1/2 it is the same half-grid convolution: an atom e at cell coordinate
j + f, split (1 - f) onto centre j and f onto centre j + 1, sends cell i
to the half-step points (i + j)/2 and (i + j + 1)/2, and splitting those
onto the centres gives the weights of the deposit (c_i + e)/2 itself:
1 - f/2 and f/2 when i + j is even, (1 - f)/2 and (1 + f)/2 when it is
odd. So that branch is cells * e_split, folded like the internal one, and
both share one transform pair. Any other external weight has its map built
once per grid and kept as row blocks, each trimmed to its nonzero column
range: a column's deposits cover only the rows its environment band
reaches, so most of the dense map is zero. The blocks are cut from those
per-column bands, and the dense map is never formed.

Bounded confidence reads each cell as a uniform density: a cell pair
interacts with the exact fraction of its point pairs that lie within the
radius. A cutoff at the cell centres would instead put an O(h) error on the
confidence boundary, which shifts where the clusters settle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (BoundedConfidence, Constant, FiniteMixture,
                      KernelSpec, env_atoms, weight_value)
from .measures import GridMeasure1D, checked_times


class SolverError(ValueError):
    pass


# the environment law is read as this many atoms by the environment branch
_ENV_CELLS = 256
# the most steps one step grid may hold (80 MB of step ends): a config
# asking for more is rejected before anything is allocated
MAX_STEPS = 10 ** 7

# rows per block of the environment map: a block's columns span the band
# of its rows, so short blocks keep little of the map's zero part
_ENV_BLOCK_ROWS = 64


@dataclass(frozen=True)
class SolverConfig:
    lo: float
    hi: float
    m: int = 1000
    dt: float = 0.01
    horizon: float = 10.0
    snapshot_times: tuple[float, ...] = None  # None: 11 in [0, horizon]
    scheme: str = "euler"

    def __post_init__(self):
        if not self.hi > self.lo:
            raise SolverError("hi must exceed lo")
        if self.m < 2:
            raise SolverError("m must be >= 2")
        if self.dt <= 0 or self.dt > 0.1:
            raise SolverError("dt must lie in (0, 0.1]")
        if self.scheme not in ("euler", "rk4"):
            raise SolverError("scheme must be 'euler' or 'rk4'")
        object.__setattr__(self, "snapshot_times", checked_times(
            self.snapshot_times, self.horizon, SolverError))
        if self.horizon / self.dt > MAX_STEPS:
            raise SolverError(f"horizon / dt must be at most {MAX_STEPS:g} "
                              "steps")


def _fft_size(m: int) -> int:
    """The power of two at or above 2m - 1, the length of a half-grid
    convolution of m cells, that the convolution is zero-padded to (no
    wrap-around)."""
    return 1 << (2 * m - 2).bit_length()


def _fold_filter(n_fft: int) -> np.ndarray:
    """The fold of the half-step grid onto the centres, c[2i] +
    (c[2i - 1] + c[2i + 1])/2, is the filter 1 + cos(2 pi k / N) followed
    by decimation by 2, which halves the sum of the spectrum's two
    aliases. This is the filter with that half, at the rfft frequencies
    k = 0..N/2 of a length N = n_fft transform."""
    return 0.5 * (1.0 + np.cos((2.0 * np.pi / n_fft) * np.arange(
        n_fft // 2 + 1)))


def _conv_half(cells: np.ndarray, half: np.ndarray,
               env_hat: np.ndarray | None = None) -> np.ndarray:
    """The weight-1/2 branches, on the half-step grid and folded onto the
    centres. The internal one is the discrete self-convolution
    coeff * cells * cells: pair (i, j) lands at (i + j)/2. The external
    one is cells * e_split: an environment atom at cell coordinate j + f,
    split (1 - f) onto centre j and f onto j + 1, sends cell i to
    (i + j)/2 and (i + j + 1)/2, which fold onto the centres with the
    weights of the deposit (c_i + e)/2 itself, 1 - f/2 and f/2 when i + j
    is even, (1 - f)/2 and (1 + f)/2 when it is odd. A half-step point
    between two centres is split equally onto them.

    half is coeff times `_fold_filter`, and env_hat the rfft of the
    external coefficient times e_split, times the filter too. So the
    product spectrum D = C (half C + env_hat) is already filtered, and the
    decimation by 2 adds conj(D[N/2 - k]) onto D[k], k <= N/4: one
    inverse transform of length N/2 >= m gives the centres."""
    n_fft = _fft_size(cells.size)
    q = n_fft // 4
    spec = np.fft.rfft(cells, n_fft)
    d = spec * half if env_hat is None else half * spec + env_hat
    d *= spec
    fold = d[:q + 1]
    fold += np.conj(d[q:][::-1])
    return np.fft.irfft(fold, 2 * q)[:cells.size]


def split_onto_centres(lo: float, h: float, m: int, x: np.ndarray,
                       mass: np.ndarray | None = None):
    """Point masses at x split linearly onto the m centres of the cells of
    width h from lo, keeping their mean: at cell coordinate j + f, clipped
    to [0, m - 1], centre j takes 1 - f and j + 1 takes f. Without masses,
    return j and f."""
    pos = np.clip((x - lo) / h - 0.5, 0.0, m - 1.0)
    j = np.floor(pos).astype(np.int64)
    f = pos - j
    if mass is None:
        return j, f
    return (np.bincount(j, mass * (1.0 - f), minlength=m)
            + np.bincount(np.minimum(j + 1, m - 1), mass * f, minlength=m))


def check_within_centres(lo: float, hi: float, m: int, x,
                         what: str) -> None:
    """Raise SolverError, naming the points x by `what`, unless they lie
    within the first and last of the m cell centres over [lo, hi], where
    split_onto_centres keeps each point mass's mean rather than clipping
    it. The centres carry the rounding of the window's magnitude."""
    h = (hi - lo) / m
    c0, c1 = lo + 0.5 * h, lo + (m - 0.5) * h
    tol = 1e-12 * max(abs(lo), abs(hi))
    a, b = np.min(x), np.max(x)
    if a < c0 - tol or b > c1 + tol:
        raise SolverError(f"{what} hull [{a:g}, {b:g}] must lie within "
                          f"[{c0:g}, {c1:g}], the first and last cell "
                          "centres, which must cover every point mass")


def _within_radius_fraction(r: float, lags: np.ndarray) -> np.ndarray:
    """Fraction of the point pairs of two uniform cells `lags` cells apart
    that lie within r cell widths of each other. The difference of the two
    in-cell offsets is triangular on [-1, 1] (in cells), so the fraction is
    the triangular CDF evaluated from r - lag down to -r - lag."""

    def cdf(s):
        s = np.clip(s, -1.0, 1.0)
        return np.where(s <= 0.0, 0.5 * (1.0 + s) ** 2,
                        1.0 - 0.5 * (1.0 - s) ** 2)

    return cdf(r - lags) - cdf(-r - lags)


def _lag_plan(branches: list, m: int, h: float):
    """The deposits of the internal (law, mass coefficient) branches by cell
    lag L. A branch moves a fraction q(L) of its pairs with weight w(L): the
    in-radius fraction for bounded confidence, else 1 where w(L) > 0. The
    plan is [(L, [(j0, coeff q (1 - f), coeff q f), ...]), ...], with j0
    and f the floor and fraction of the shift w(L) L. The branches that
    leave pairs in place add their coeffs to the stay coefficient, and
    coeff q to the symmetric kernel of moved fractions."""
    lags = np.arange(m)
    deposits = {}
    stay, moved = 0.0, np.zeros(m)
    for law, coeff in branches:
        if isinstance(law, BoundedConfidence):
            w = law.omega0
            q = _within_radius_fraction(law.radius / h, lags)
        else:
            w = weight_value(law, lags * h)
            q = (w > 0.0) * 1.0
        if (q < 1.0).any():
            stay += coeff
            moved += coeff * q
        shift = w * lags
        j0 = np.floor(shift)
        f = shift - j0
        for lag in np.flatnonzero(q):
            a = coeff * q[lag]
            deposits.setdefault(int(lag), []).append(
                (int(j0[lag]), float(a * (1.0 - f[lag])), float(a * f[lag])))
    k = np.max(np.flatnonzero(moved), initial=0)
    kernel = np.concatenate((moved[k:0:-1], moved[:k + 1]))
    return sorted(deposits.items()), stay, kernel


def _external_blocks(lo: float, h: float, branches: list,
                     env_pos: np.ndarray, env_mass: np.ndarray,
                     centers: np.ndarray) -> list[tuple]:
    """The environment branch is linear in the cell masses: for the
    external (law, mass coefficient) branches its map T has
    (T @ cells)[p] = sum coeff * sum_l q_l * splat_p((1-u) c_i + u e_l).
    Return T as (r0, r1, c0, c1, T[r0:r1, c0:c1]) blocks of _ENV_BLOCK_ROWS
    rows over its nonzero rows, each cut to its nonzero column range, so
    that T @ x is the sum of block @ x[c0:c1] placed at rows r0:r1.

    T itself is never formed. Column c's deposits are summed into a band
    of the rows from the lowest it reaches, one deposit at a time in the
    order of branches, atoms and the two sides of each splat, and the
    blocks are cut from the bands. The deposits are nonnegative, so an
    entry is nonzero exactly when one of its deposits is."""
    m = centers.size
    splats = []
    low = np.full(m, m - 1)
    high = np.zeros(m, dtype=np.int64)
    for law, coeff in branches:
        for e, q in zip(env_pos, env_mass):
            u = weight_value(law, np.abs(centers - e))
            z = (1.0 - u) * centers + u * e
            idx, frac = split_onto_centres(lo, h, m, z)
            splats.append((idx, frac, coeff * q))
            np.minimum(low, idx, out=low)
            np.maximum(high, idx, out=high)
    # band[c, i] is T[low[c] + i, c]; one side of one splat hits each
    # column once, so += adds the deposits one at a time, in order
    width = int((np.minimum(high + 1, m - 1) - low).max()) + 1
    cols = np.arange(m)
    band = np.zeros(m * width)
    base = width * cols - low
    for idx, frac, scale in splats:
        band[base + idx] += scale * (1.0 - frac)
        band[base + np.minimum(idx + 1, m - 1)] += scale * frac
    band = band.reshape(m, width)
    live = band != 0.0
    # below[c, i]: nonzeros of column c above band offset i
    below = np.zeros((m, width + 1), dtype=np.int64)
    np.cumsum(live, axis=1, out=below[:, 1:])
    has = below[:, -1] > 0
    first = int((low + live.argmax(axis=1))[has].min())
    last = int((low + width - 1 - live[:, ::-1].argmax(axis=1))[has].max())
    blocks = []
    for r0 in range(first, last + 1, _ENV_BLOCK_ROWS):
        r1 = min(r0 + _ENV_BLOCK_ROWS, last + 1)
        i0 = np.clip(r0 - low, 0, width)
        i1 = np.clip(r1 - low, 0, width)
        nz = np.flatnonzero(below[cols, i1] > below[cols, i0])
        if nz.size:  # an all-zero stretch between two bands has none
            c0, c1 = int(nz[0]), int(nz[-1]) + 1
            i = np.arange(r0, r1)[:, None] - low[c0:c1]
            inside = (i >= 0) & (i < width)
            block = np.where(inside, band[cols[c0:c1],
                                          np.clip(i, 0, width - 1)], 0.0)
            blocks.append((r0, r1, c0, c1, block))
    return blocks


def _branches(law, coeff: float) -> list[tuple]:
    """A weight law as (law, mass coefficient) branches: a mixture's
    components as constant laws, each with its share of coeff."""
    if isinstance(law, FiniteMixture):
        return [(Constant(w), coeff * p)
                for w, p in zip(law.omegas, law.probs)]
    return [(law, coeff)]


class _FieldEvaluator:
    """Precomputed context for repeated apply_F evaluations on one grid."""

    def __init__(self, template: GridMeasure1D, kernel: KernelSpec):
        self.lo = template.lo
        self.hi = template.hi
        self.m = template.m
        self.h = template.h
        self.centers = template.centers
        half = Constant(0.5)
        branches = _branches(kernel.internal, kernel.alpha)
        self.half = sum(c for law, c in branches if law == half)
        self.plan, self.stay, self.stay_kernel = _lag_plan(
            [(law, c) for law, c in branches if law != half and c > 0],
            self.m, self.h)
        n_fft = _fft_size(self.m)
        fold = _fold_filter(n_fft)
        self.half_hat = self.half * fold
        self.env_hat = None
        self.ext_blocks = []
        if kernel.alpha < 1.0:
            pos, mass = env_atoms(kernel.environment, _ENV_CELLS)
            check_within_centres(self.lo, self.hi, self.m, pos,
                                 "the environment's")
            branches = _branches(kernel.external, 1.0 - kernel.alpha)
            env_half = sum(c for law, c in branches if law == half)
            if env_half:
                split = split_onto_centres(self.lo, self.h, self.m, pos,
                                           mass)
                self.env_hat = fold * np.fft.rfft(env_half * split, n_fft)
            rest = [(law, c) for law, c in branches if law != half and c > 0]
            if rest:
                self.ext_blocks = _external_blocks(
                    self.lo, self.h, rest, pos, mass, self.centers)

    def apply_raw(self, cells: np.ndarray) -> np.ndarray:
        m = self.m
        if self.half or self.env_hat is not None:
            out = _conv_half(cells, self.half_hat, self.env_hat)
        else:
            out = np.zeros(m)
        for lag, deposits in self.plan:
            # c_i * c_{i+lag}: the pair moved from i lands at i + j0 + f,
            # the one moved from i + lag at i + lag - j0 - f
            u = cells[:m - lag] * cells[lag:]
            for j0, near, far in deposits:
                v = near * u
                out[j0:j0 + m - lag] += v
                if lag:
                    out[lag - j0:m - j0] += v
                if far:  # f > 0 needs lag > 0
                    v = far * u
                    out[j0 + 1:j0 + 1 + m - lag] += v
                    out[lag - j0 - 1:m - j0 - 1] += v
        if self.stay:
            k = self.stay_kernel.size // 2
            out += cells * (self.stay * float(cells.sum())
                            - np.convolve(cells, self.stay_kernel)[k:k + m])
        for r0, r1, c0, c1, block in self.ext_blocks:
            out[r0:r1] += block @ cells[c0:c1]
        return out


def apply_F(g: GridMeasure1D, k: KernelSpec) -> GridMeasure1D:
    """One-interaction pushforward F(mu) of a normalized histogram."""
    if not g.normalized:
        raise SolverError("apply_F needs a normalized grid measure")
    ev = _FieldEvaluator(g, k)
    out = ev.apply_raw(np.asarray(g.cells))
    if abs(out.sum() - 1.0) > 1e-12:
        raise SolverError("mass conservation violated in apply_F")
    return GridMeasure1D(g.lo, g.hi, np.maximum(out, 0.0))


def step_ends(horizon: float, dt: float, times=()) -> np.ndarray:
    """Step ends from 0 to the horizon: the dt grid cut 1e-9 short of it,
    every requested time in (0, horizon], and the horizon, where the last
    step ends. An end within 1e-9 of the one before is dropped."""
    n_steps = int(np.ceil(horizon / dt - 1e-9))
    grid = dt * np.arange(1, n_steps + 1)
    ends = np.union1d(grid[grid < horizon - 1e-9],
                      [s for s in (*times, horizon) if 0.0 < s <= horizon])
    return ends[np.diff(ends, prepend=0.0) > 1e-9]


def integrate(g0: GridMeasure1D, k: KernelSpec,
              cfg: SolverConfig) -> list[tuple[float, GridMeasure1D]]:
    """Time-step d/dt mu = F(mu) - mu from g0, returning snapshots at the
    requested times. The steps end on step_ends, so every snapshot lands
    exactly on its requested time (no O(dt) sampling offset)."""
    if not g0.normalized:
        raise SolverError("initial measure must be normalized")
    if abs(g0.lo - cfg.lo) > 1e-12 or abs(g0.hi - cfg.hi) > 1e-12 \
            or g0.m != cfg.m:
        raise SolverError("initial measure grid mismatch with solver config")
    ev = _FieldEvaluator(g0, k)
    cells = np.asarray(g0.cells).copy()
    kept = np.empty_like(cells)
    snaps = cfg.snapshot_times
    out: list[tuple[float, GridMeasure1D]] = []
    ptr = 0

    def emit(t):
        nonlocal ptr
        while ptr < len(snaps) and snaps[ptr] <= t + 1e-9:
            out.append((snaps[ptr], GridMeasure1D(cfg.lo, cfg.hi,
                                                  cells.copy())))
            ptr += 1

    def slope(y):
        k = ev.apply_raw(y)
        k -= y
        return k

    def stage(k, scale):
        np.multiply(k, scale, out=kept)
        return slope(np.add(kept, cells, out=kept))

    emit(0.0)
    rk4 = cfg.scheme == "rk4"
    t_prev = 0.0
    for t in step_ends(cfg.horizon, cfg.dt, snaps):
        step = t - t_prev
        # classical RK4, y + (h/6)(k1 + 2 k2 + 2 k3 + k4) with its stages
        # at y + (h/2) k1, y + (h/2) k2 and y + h k3, or Euler, y + h k1,
        # in that arithmetic order, with the stage points in one kept array
        k1 = slope(cells)
        if rk4:
            k2 = stage(k1, 0.5 * step)
            k3 = stage(k2, 0.5 * step)
            k4 = stage(k3, step)
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= step / 6.0
        else:
            k1 *= step
        cells += k1
        if cells.min() < -1e-12:
            raise SolverError("dt too large")
        np.maximum(cells, 0.0, out=cells)
        cells /= cells.sum()
        t_prev = t
        emit(t)
    emit(cfg.horizon + 1.0)  # flush any remaining (fp-edge) snapshots
    return out
