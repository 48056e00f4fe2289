"""Outcome distributions as vectors, checked against the brute-force oracles.

``qaoa.metrics`` and ``sim.remap_counts`` work on vectors indexed by the
little-endian basis integer; ``oracles.distribution_metrics`` and
``oracles.permutation_matrix`` enumerate the same quantities one basis
state at a time.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from bqaoa import qaoa, sim
from problem_strategies import maxcut_problems, portfolio_problems

TOL = dict(rel=1e-12, abs=1e-12)


@st.composite
def weight_vectors(draw, n):
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
            min_size=2**n,
            max_size=2**n,
        )
    )
    return np.array(weights)


@st.composite
def maxcut_cases(draw):
    prob, costs, sense = draw(maxcut_problems())
    return prob, costs, sense, draw(weight_vectors(prob.n))


@st.composite
def portfolio_cases(draw):
    prob, costs, sense = draw(portfolio_problems())
    return prob, costs, sense, draw(weight_vectors(prob.n))


@settings(max_examples=60, deadline=None)
@given(st.one_of(maxcut_cases(), portfolio_cases()))
def test_metrics_match_oracle(case):
    prob, costs, sense, weights = case
    feasible = [
        z for z in range(len(weights))
        if prob.feasible_weight is None or bin(z).count("1") == prob.feasible_weight
    ]
    assume(weights[feasible].sum() > 0)
    result = qaoa.metrics(prob, weights, sense)
    mean, opt, sp = oracles.distribution_metrics(
        costs, dict(enumerate(weights)), sense, feasible_weight=prob.feasible_weight
    )
    assert result.mean_cost == pytest.approx(mean, **TOL)
    assert result.opt_cost == pytest.approx(opt, **TOL)
    assert result.sp == pytest.approx(sp, **TOL)
    assert result.ar == pytest.approx(mean / opt, **TOL)
    fraction = weights[feasible].sum() / weights.sum()
    assert result.feasible_fraction == pytest.approx(fraction, **TOL)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_remap_counts_is_the_permutation_matrix(data):
    n = data.draw(st.integers(1, 6))
    wire_to_clbit = data.draw(st.permutations(range(n)))
    vec = data.draw(weight_vectors(n))
    remapped = sim.remap_counts(vec, dict(enumerate(wire_to_clbit)))
    # the matrix sends a clbit-indexed vector to the wire-indexed one
    p = oracles.permutation_matrix(wire_to_clbit, n)
    assert np.array_equal(remapped, p.T @ vec)
    assert np.array_equal(p @ remapped, vec)
