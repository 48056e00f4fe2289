"""The product-form exact evaluator against the circuit-built reference.

``optimize.exact_expectation_evaluator`` never builds a circuit: it applies
the diagonal cost phases and per-qubit RX rotations to a state vector and
reduces through the shared cost table.  The reference below builds the
swap network, simulates its state vector and undoes the final permutation,
the path training used before.  The symmetry tests pin the properties that
canonicalizing trained angles may rely on.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bqaoa import circuit, data_path, optimize, qaoa, sim
from bqaoa.errors import TooLargeError, ValidationError
from bqaoa.qaoa import ParamVector
from problem_strategies import maxcut_problems, portfolio_problems

TOL = dict(rel=1e-12, abs=1e-12)
BUNDLED = ("k5_maxcut", "portopt3", "portopt5")


def reference_metrics(prob, params, sense):
    circ = qaoa.build_swap_network(prob, params)
    return qaoa.metrics(prob, sim.ideal_distribution(circ), sense)


def bundled(name):
    problem = qaoa.load_problem(data_path(f"{name}.json"))
    return problem.ising, problem.sense


@st.composite
def angles(draw, max_p=3):
    p = draw(st.integers(1, max_p))
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    gammas = draw(st.lists(angle, min_size=p, max_size=p))
    betas = draw(st.lists(angle, min_size=p, max_size=p))
    return ParamVector(tuple(gammas), tuple(betas))


def problems():
    bundled_problems = st.sampled_from(BUNDLED).map(bundled)
    drawn = st.one_of(maxcut_problems(), portfolio_problems())
    return st.one_of(bundled_problems, drawn.map(lambda case: (case[0], case[2])))


def assert_same_metrics(got, want):
    if want.ar is None:
        assert got.ar is None
    else:
        assert got.ar == pytest.approx(want.ar, **TOL)
    assert got.sp == pytest.approx(want.sp, **TOL)
    assert got.mean_cost == pytest.approx(want.mean_cost, **TOL)
    assert got.feasible_fraction == pytest.approx(want.feasible_fraction, **TOL)
    assert got.opt_cost == want.opt_cost


@settings(max_examples=80, deadline=None)
@given(problems(), angles())
def test_evaluator_matches_circuit_reference(problem, params):
    prob, sense = problem
    evaluate = optimize.exact_expectation_evaluator(prob, sense)
    assert_same_metrics(evaluate(params), reference_metrics(prob, params, sense))


def test_evaluator_refuses_the_sizes_the_circuit_path_refuses():
    prob = qaoa.encode_maxcut(qaoa.MaxCutInstance(11, frozenset({(0, 1)})))
    with pytest.raises(TooLargeError):
        optimize.exact_expectation_evaluator(prob, "max")
    with pytest.raises(TooLargeError):
        circuit.statevector(qaoa.build_swap_network(prob, ParamVector((0.1,), (0.2,))))


def test_evaluator_rejects_non_finite_angles():
    prob, sense = bundled("k5_maxcut")
    evaluate = optimize.exact_expectation_evaluator(prob, sense)
    for params in (ParamVector((math.nan,), (0.1,)), ParamVector((0.1,), (math.inf,))):
        with pytest.raises(ValidationError):
            evaluate(params)
        with pytest.raises(ValidationError):
            reference_metrics(prob, params, sense)


def test_evaluator_at_the_dense_limit_matches_reference():
    n = circuit.MAX_DENSE_QUBITS
    ring = frozenset((i, i + 1) for i in range(n - 1)) | {(0, n - 1)}
    prob = qaoa.encode_maxcut(qaoa.MaxCutInstance(n, ring))
    params = ParamVector((0.3, 1.1), (0.7, -0.2))
    evaluate = optimize.exact_expectation_evaluator(prob, "max")
    assert_same_metrics(evaluate(params), reference_metrics(prob, params, "max"))


@settings(max_examples=60, deadline=None)
@given(st.one_of(maxcut_problems(), portfolio_problems()), angles())
def test_time_reversal_leaves_metrics_unchanged(case, params):
    # a real diagonal cost and a real start state: conjugation maps
    # (gamma, beta) to (-gamma, -beta) without changing |psi|^2
    prob, _, sense = case
    evaluate = optimize.exact_expectation_evaluator(prob, sense)
    reversed_params = ParamVector(
        tuple(-g for g in params.gammas), tuple(-b for b in params.betas)
    )
    assert_same_metrics(evaluate(reversed_params), evaluate(params))


@settings(max_examples=60, deadline=None)
@given(maxcut_problems(), angles(), st.data())
def test_maxcut_beta_shift_by_half_pi_leaves_metrics_unchanged(case, params, data):
    # RX(2 beta + pi) is RX(2 beta) times -iX: the global bit flip commutes
    # with the mixer and with a bit-flip-symmetric cost, and a flipped
    # outcome has the same cut
    prob, _, sense = case
    k = data.draw(st.integers(0, params.p - 1))
    betas = list(params.betas)
    betas[k] += math.pi / 2
    evaluate = optimize.exact_expectation_evaluator(prob, sense)
    shifted = evaluate(ParamVector(params.gammas, tuple(betas)))
    assert_same_metrics(shifted, evaluate(params))


def test_portfolio_beta_shift_by_half_pi_changes_ar():
    # the fields break the bit-flip symmetry, and the flip maps the budget
    # weight B to n - B, so the pi/2 beta period must not be used here
    prob, sense = bundled("portopt5")
    assert any(h != 0 for h in prob.h) and prob.feasible_weight != prob.n / 2
    evaluate = optimize.exact_expectation_evaluator(prob, sense)
    rng = np.random.default_rng(5)
    for p in (1, 2, 3):
        gammas = tuple(rng.uniform(0, math.pi, p))
        betas = tuple(rng.uniform(0, math.pi / 2, p))
        shifted = (betas[0] + math.pi / 2,) + betas[1:]
        before = evaluate(ParamVector(gammas, betas)).ar
        after = evaluate(ParamVector(gammas, shifted)).ar
        assert abs(after - before) > 1e-3


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 6),
    st.data(),
    st.floats(-2 * math.pi, 2 * math.pi),
    st.floats(-2 * math.pi, 2 * math.pi),
)
def test_closed_form_p1_maxcut_matches_unitary_oracle(n, data, gamma, beta):
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs))))
    costs = np.array([oracles.cut_size(z, n, edges) for z in range(2**n)], float)
    couplings = [(edge, -0.5) for edge in edges]
    u = oracles.qaoa_unitary(n, couplings, [0.0] * n, len(edges) / 2, (gamma,), (beta,))
    expected = np.abs(u[:, 0]) ** 2 @ costs
    closed = oracles.maxcut_p1_expectation(n, edges, gamma, beta)
    assert closed == pytest.approx(expected, abs=1e-12)
