"""The in-repo Nelder-Mead search against SciPy's, point for point.

``optimize._nelder_mead`` must hand its objective the same points, bit for
bit and in the same order, as ``scipy.optimize.minimize(method=
"Nelder-Mead")`` does, so trained angles do not depend on which one ran.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from bqaoa import data_path, optimize, qaoa


def smooth(x):
    return float(np.sum((x - 0.3) ** 2) + np.sum(np.sin(3 * x)))


def plateau(x):
    """Coarse steps: many simplex vertices tie."""
    return float(np.round(smooth(x), 1))


def walled(x):
    """+inf on part of the domain, as training's objective is where AR is
    undefined."""
    return np.inf if x[0] > 0.4 else smooth(x)


def scipy_search(func, x0, xatol, fatol):
    # a finite maxfev sets no iteration cap, as the in-repo search has none
    options = {"maxfev": 10**9, "xatol": xatol, "fatol": fatol}
    minimize(func, x0, method="Nelder-Mead", options=options)


def points_seen(search, objective, x0, maxfev, *args):
    """The points search hands objective, stopped after maxfev of them as
    training's objective stops a search."""
    seen = []

    def recorded(x):
        if len(seen) == maxfev:
            raise optimize._BudgetSpent
        seen.append(x.tobytes())
        return objective(x)

    with contextlib.suppress(optimize._BudgetSpent):
        search(recorded, np.array(x0), *args)
    return seen


coordinates = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    x0=st.lists(coordinates, min_size=1, max_size=6),
    objective=st.sampled_from([smooth, plateau, walled]),
    maxfev=st.integers(1, 400),
    xatol=st.sampled_from([1e-4, 1e-2]),
    fatol=st.sampled_from([0.0, 1e-5, 1e-2]),
)
def test_same_points_as_scipy(x0, objective, maxfev, xatol, fatol):
    args = (objective, x0, maxfev, xatol, fatol)
    want = points_seen(scipy_search, *args)
    assert points_seen(optimize._nelder_mead, *args) == want


@pytest.mark.parametrize("name", ["k5_maxcut.json", "portopt5.json"])
def test_depth_sweep_matches_training_by_scipy(name, monkeypatch):
    """Angles, AR, trace, evaluations and budget flag, on real training."""
    problem = qaoa.load_problem(data_path(name))
    args = (problem.ising, problem.sense, [1, 2, 3], optimize.OptimizerConfig())
    ours = optimize.optimize_depth_sweep(*args)
    monkeypatch.setattr(optimize, "_nelder_mead", scipy_search)
    assert ours == optimize.optimize_depth_sweep(*args)
