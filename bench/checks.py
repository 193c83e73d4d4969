"""Correctness checks for the benchmark's CLI outputs.

Every check compares an artifact against a value computed here, apart from
the program, or against a property the method must have; none compares
against a stored copy of an earlier output. Each check function returns a
list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad

# E W1(empirical measure of n uniform samples on (0, L), U(0, L)) is
# L * int_0^1 E|F_n(u) - u| du ~ L * int_0^1 sqrt(2 u (1-u) / (pi n)) du
# = L * sqrt(2 pi) / 8 / sqrt(n).
W1_UNIFORM_CONST = math.sqrt(2.0 * math.pi) / 8.0   # 0.31333

# Bands, sized from 20 000 resampled runs of 20 (Gaussian) and 40
# (consensus) replicas drawn from 300-400 replicas per n: the log-log slope
# of the median D stayed within [-0.70, -0.30] and the median D within
# [0.73, 2.11] times the closed-form scale. One n = 1e5 W1 at t = 0 stayed
# within [0.42, 2.73] times its scale over 400 seeds, and the sampling part
# of one n = 5e4 W1 within [0.35, 2.97]; the lower tail of the
# L1 norm of a Brownian bridge is a small-ball probability, the upper tail
# falls like exp(-6 x^2).
MEDIAN_SLOPE_BAND = (-0.8, -0.2)
MEDIAN_SCALE_BAND = (0.5, 3.0)
T0_SCALE_BAND = (0.25, 5.0)


def w1_uniform_scale(width: float, n: int) -> float:
    """Closed-form E W1 between n uniform samples and the uniform law on an
    interval of the given width (large-n form)."""
    return W1_UNIFORM_CONST * width / math.sqrt(n)


def _data_lines(path: Path) -> list[list[str]]:
    """Comma-split rows of a CSV artifact, without comments and header."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _comment_fields(path: Path) -> list[dict]:
    """The `key=value` fields of each comment line after the first."""
    out = []
    for ln in path.read_text().splitlines()[1:]:
        if ln.startswith("#"):
            out.append(dict(f.split("=", 1) for f in ln[1:].split()
                            if "=" in f))
    return out


def check_concentration(out: Path, n_list, replicas: int,
                        width: float) -> list[str]:
    """deviations.csv and rates.csv of `concentrate` on a uniform initial
    law of the given width."""
    errs = []
    try:
        rows = [(int(n), int(r), float(d))
                for n, r, d in _data_lines(out / "deviations.csv")]
    except (OSError, ValueError) as e:
        return [f"deviations.csv unreadable: {e}"]
    want = {(n, r) for n in n_list for r in range(replicas)}
    got = [(n, r) for n, r, _ in rows]
    if len(got) != len(want) or set(got) != want:
        errs.append(f"deviations.csv: {len(got)} rows, expected one per "
                    f"(n, replica), {len(want)} in all")
    bad = [(n, r, d) for n, r, d in rows
           if not (math.isfinite(d) and 0.0 < d <= width)]
    if bad:
        # W1 between two probability measures on the hull is at most its width
        errs.append(f"deviations.csv: D outside (0, {width}]: {bad[:3]}")
    if errs:
        return errs

    ns = sorted(n_list)
    med = [float(np.median([d for nn, _, d in rows if nn == n])) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(med), 1)[0])
    if not MEDIAN_SLOPE_BAND[0] <= slope <= MEDIAN_SLOPE_BAND[1]:
        errs.append(f"median D log-log slope {slope:.3f} outside "
                    f"{MEDIAN_SLOPE_BAND}")
    for n, m in zip(ns, med):
        ratio = m / w1_uniform_scale(width, n)
        if not MEDIAN_SCALE_BAND[0] <= ratio <= MEDIAN_SCALE_BAND[1]:
            errs.append(f"n={n}: median D {m:.4g} is {ratio:.2f} times the "
                        f"closed-form scale, outside {MEDIAN_SCALE_BAND}")

    try:
        fits = _comment_fields(out / "rates.csv")
    except OSError as e:
        return errs + [f"rates.csv unreadable: {e}"]
    slopes = [float(f["slope"]) for f in fits if "slope" in f]
    if not slopes:
        errs.append("rates.csv: no eps gave a tail fit")
    elif not float(np.median(slopes)) < 0.0:
        errs.append(f"rates.csv: median tail-fit slope {np.median(slopes)} "
                    "is not negative")
    return errs


def bump_moment(k: int) -> float:
    """k-th moment of the bump density exp(-1/(1-(x-3)^2)) on (2, 4), by
    adaptive quadrature."""
    def f(x):
        u = 1.0 - (x - 3.0) ** 2
        return math.exp(-1.0 / u) if u > 0.0 else 0.0

    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    mass = quad(f, 2.0, 4.0, **opts)[0]
    return quad(lambda x: f(x) * x ** k, 2.0, 4.0, **opts)[0] / mass


def check_environment(out: Path, n_agents: int) -> list[str]:
    """moments.csv, limits.csv and compare.csv for alpha = 1/2, constant
    weights 1/2, the bump environment and a uniform initial law on (0, 10),
    with n_agents agents in the compare run."""
    errs = []
    try:
        mom = [(float(t), int(k), float(v))
               for t, k, v in _data_lines(out / "moments.csv")]
        lim = {int(k): float(v) for k, v in _data_lines(out / "limits.csv")}
        cmp_rows = [(float(t), float(w))
                    for t, w in _data_lines(out / "compare.csv")]
    except (OSError, ValueError) as e:
        return [f"environment artifacts unreadable: {e}"]

    # d/dt m1 = (1-alpha) upsilon (n1 - m1) with n1 = 3, m1(0) = 5
    m1 = [(t, v) for t, k, v in mom if k == 1]
    worst = max((abs(v - (3.0 + 2.0 * math.exp(-t / 4.0))), t)
                for t, v in m1) if m1 else (math.inf, None)
    if not worst[0] <= 1e-9:
        errs.append(f"moments.csv: m1 off 3 + 2 exp(-t/4) by {worst[0]:.3g} "
                    f"at t={worst[1]}")

    # stationary order 2: gamma_2 = 0.625 and the lower-order coupling
    # 2 (alpha w (1-w) m1^2 + (1-alpha) u (1-u) m1 n1) = 4.5 at m1 = n1 = 3,
    # plus the environment term (1-alpha) u^2 n2 = 0.125 n2
    want = {1: 3.0, 2: (4.5 + 0.125 * bump_moment(2)) / 0.625}
    for k, v in want.items():
        if k not in lim or not abs(lim[k] - v) <= 1e-9 * abs(v):
            errs.append(f"limits.csv: m{k} = {lim.get(k)}, expected {v!r}")

    t_end = max(t for t, _, _ in mom) if mom else None
    last = {k: v for t, k, v in mom if t == t_end}
    if set(last) != set(lim) or not lim:
        errs.append(f"moments.csv last row orders {sorted(last)} differ "
                    f"from limits.csv orders {sorted(lim)}")
    for k in sorted(set(last) & set(lim)):
        if not abs(last[k] - lim[k]) <= 1e-8 * abs(lim[k]):
            errs.append(f"moments.csv at t={t_end}: m{k} = {last[k]!r} does "
                        f"not meet its limit {lim[k]!r}")

    if not cmp_rows or not all(math.isfinite(w) and w > 0.0
                               for _, w in cmp_rows):
        errs.append(f"compare.csv: W1 must be finite and positive: "
                    f"{cmp_rows[:3]}")
    else:
        w0 = [w for t, w in cmp_rows if t == 0.0]
        ratio = w0[0] / w1_uniform_scale(10.0, n_agents) if w0 else math.nan
        if not T0_SCALE_BAND[0] <= ratio <= T0_SCALE_BAND[1]:
            errs.append(f"compare.csv: W1 at t=0 is {ratio:.3g} times the "
                        f"closed-form scale, outside {T0_SCALE_BAND}")
    return errs
