"""Ground-truth W1 for the tests: the transportation linear program, solved
by scipy. It shares nothing with `gossipfield.measures.wasserstein1_1d`
(an LP on the cost matrix |x - y|, no CDF shortcut), so the two check
each other."""

import numpy as np
from scipy.optimize import linprog

from gossipfield.measures import AtomicMeasure, MeasureError


def wasserstein1_oracle(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """W1 of two small atomic measures, at most 12 atoms each, by solving
    the transportation linear program exactly."""
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
