"""The benchmark's output checks pass on well-formed outputs and fail on
deliberately corrupted ones. Outputs are synthetic, so these tests run in
milliseconds and assert nothing about timing."""

import math

import numpy as np
import pytest

import checks
import tracing

N_LIST = [100, 300, 1000, 3000]
REPLICAS = 20
WIDTH = 10.0
AGENTS = 100_000


def _write(path, header, rows, trailer=()):
    lines = ["# config_hash=0123456789abcdef seed=1", header]
    lines += [",".join(repr(v) for v in row) for row in rows]
    path.write_text("\n".join([*lines, *trailer]) + "\n")


def _deviations():
    rng = np.random.default_rng(0)
    return [(n, r, 1.2 * checks.w1_uniform_scale(WIDTH, n)
             * float(rng.lognormal(0.0, 0.2)))
            for n in N_LIST for r in range(REPLICAS)]


def _write_concentration(out, rows, slopes=(-3e-4, -1e-3)):
    _write(out / "deviations.csv", "n,replica,D", rows)
    _write(out / "rates.csv", "eps,n,tail_prob", [(0.15, 300, 0.9)],
           [f"# eps=0.15 slope={s!r} stderr=0" for s in slopes])


def _scale_n(rows, n, factor):
    return [(nn, r, d * factor if nn == n else d) for nn, r, d in rows]


CONCENTRATION_CORRUPTIONS = {
    "one D row scaled up": lambda rows: [
        (n, r, d * 1e3 if (n, r) == (1000, 3) else d) for n, r, d in rows],
    "D rows of the largest n scaled up": lambda rows: _scale_n(rows, 3000, 4),
    "every D scaled up": lambda rows: [(n, r, 5 * d) for n, r, d in rows],
    "a row missing": lambda rows: rows[1:],
    "a row repeated": lambda rows: rows + rows[:1],
    "a zero D": lambda rows: [
        (n, r, 0.0 if (n, r) == (300, 0) else d) for n, r, d in rows],
    "a NaN D": lambda rows: [
        (n, r, math.nan if (n, r) == (300, 1) else d) for n, r, d in rows],
}


def test_concentration_passes(tmp_path):
    _write_concentration(tmp_path, _deviations())
    assert checks.check_concentration(tmp_path, N_LIST, REPLICAS, WIDTH) == []


@pytest.mark.parametrize("corruption", sorted(CONCENTRATION_CORRUPTIONS))
def test_concentration_fails_on_corrupted_deviations(tmp_path, corruption):
    _write_concentration(tmp_path,
                         CONCENTRATION_CORRUPTIONS[corruption](_deviations()))
    assert checks.check_concentration(tmp_path, N_LIST, REPLICAS, WIDTH)


@pytest.mark.parametrize("slopes", [(), (2e-4,), (-1e-3, 1e-3, 2e-3)])
def test_concentration_fails_without_negative_tail_slope(tmp_path, slopes):
    _write_concentration(tmp_path, _deviations(), slopes)
    assert checks.check_concentration(tmp_path, N_LIST, REPLICAS, WIDTH)


def _limits():
    m2 = (4.5 + 0.125 * checks.bump_moment(2)) / 0.625
    return {1: 3.0, 2: m2, **{k: m2 ** (k / 2) for k in range(3, 9)}}


def _write_environment(out, lim, shift=lambda t, k, v: v,
                       w1=lambda t, w: w):
    rows = []
    for t in np.linspace(0.0, 100.0, 201):
        t = float(t)
        for k in range(1, 9):
            v = (3.0 + 2.0 * math.exp(-t / 4.0) if k == 1
                 else lim[k] + math.exp(-t) * k)
            rows.append((t, k, shift(t, k, v)))
    _write(out / "moments.csv", "t,k,value", rows)
    _write(out / "limits.csv", "k,value", sorted(lim.items()))
    scale = checks.w1_uniform_scale(WIDTH, AGENTS)
    _write(out / "compare.csv", "t,w1",
           [(float(t), w1(float(t), scale * (1.0 - 0.05 * t)))
            for t in range(11)])


def test_environment_passes(tmp_path):
    _write_environment(tmp_path, _limits())
    assert checks.check_environment(tmp_path, AGENTS) == []


@pytest.mark.parametrize("k, factor", [(1, 1 + 1e-6), (2, 1 + 1e-6),
                                       (2, 1 - 1e-6)])
def test_environment_fails_on_perturbed_limit(tmp_path, k, factor):
    lim = _limits()
    good = dict(lim)
    lim[k] *= factor
    # the trajectory still ends at the unperturbed limits
    _write_environment(tmp_path, good)
    _write(tmp_path / "limits.csv", "k,value", sorted(lim.items()))
    assert checks.check_environment(tmp_path, AGENTS)


ENVIRONMENT_CORRUPTIONS = {
    "m1 shifted": dict(shift=lambda t, k, v: v + 1e-6 if k == 1 and t == 40.0
                       else v),
    "last row off its limit": dict(
        shift=lambda t, k, v: v * (1 + 1e-6) if k == 8 and t == 100.0
        else v),
    "last row value not a number": dict(
        shift=lambda t, k, v: math.nan if k == 5 and t == 100.0 else v),
    "W1 zero": dict(w1=lambda t, w: 0.0 if t == 4.0 else w),
    "W1 not finite": dict(w1=lambda t, w: math.inf if t == 4.0 else w),
    "W1 at t=0 off scale": dict(w1=lambda t, w: 10 * w if t == 0.0 else w),
}


@pytest.mark.parametrize("corruption", sorted(ENVIRONMENT_CORRUPTIONS))
def test_environment_fails_on_corrupted_output(tmp_path, corruption):
    _write_environment(tmp_path, _limits(),
                       **ENVIRONMENT_CORRUPTIONS[corruption])
    assert checks.check_environment(tmp_path, AGENTS)


def test_bump_moments_by_quadrature():
    assert checks.bump_moment(1) == pytest.approx(3.0, abs=1e-13)
    # limit m2 of the environment workload, also from the program's Simpson
    assert (4.5 + 0.125 * checks.bump_moment(2)) / 0.625 == \
        pytest.approx(9.0316227272528, rel=1e-12)


@pytest.mark.parametrize("snaps", [(), (0.0, 0.05, 0.1), (0.0333, 0.0501)])
def test_solver_steps_matches_the_integrator(monkeypatch, snaps):
    from gossipfield import meanfield
    from gossipfield.kernels import Constant, KernelSpec
    from gossipfield.measures import GridMeasure1D

    calls = []
    apply_raw = meanfield._FieldEvaluator.apply_raw
    monkeypatch.setattr(meanfield._FieldEvaluator, "apply_raw",
                        lambda ev, cells: calls.append(1) or apply_raw(
                            ev, cells))
    cfg = meanfield.SolverConfig(0.0, 1.0, m=20, dt=0.01, horizon=0.1,
                                 snapshot_times=snaps, scheme="rk4")
    meanfield.integrate(GridMeasure1D.uniform(0.0, 1.0, 20),
                        KernelSpec(1.0, Constant(0.3)), cfg)
    assert len(calls) == 4 * tracing.solver_steps(cfg)
