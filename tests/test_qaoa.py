import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from bqaoa import circuit as cir
from bqaoa import data_path, qaoa
from bqaoa.circuit import GateKind
from bqaoa.errors import (
    DimensionError,
    NoFeasibleOutcomeError,
    ValidationError,
)

COUNTED = {
    GateKind.H,
    GateKind.RX,
    GateKind.RZ,
    GateKind.ZZ,
    GateKind.ZZ_SWAP,
    GateKind.MEASURE,
}


def k5_problem():
    return qaoa.encode_maxcut(helpers.complete_maxcut(5))


def random_problem(rng, n):
    couplings = tuple(
        ((i, j), float(rng.normal())) for i in range(n) for j in range(i + 1, n)
    )
    fields = tuple(float(v) for v in rng.normal(size=n))
    return qaoa.IsingProblem(
        n=n, j=couplings, h=fields, constant=float(rng.normal())
    )


# --- encoders ---


def test_encode_portopt_collapsed_case():
    inst = qaoa.PortfolioInstance(
        n=3,
        mu=(1.0, 2.0, 3.0),
        sigma=((0.0,) * 3,) * 3,
        q=0.0,
        budget=1,
        penalty=0.0,
        lam=2.0,
    )
    prob = qaoa.encode_portopt(inst)
    assert all(value == 0.0 for _, value in prob.j)
    assert prob.h == (-1.0, -2.0, -3.0)
    assert prob.feasible_weight == 1


def test_encode_portopt_hand_expansion():
    inst = qaoa.PortfolioInstance(
        n=2,
        mu=(0.0, 0.0),
        sigma=((0.0, 1.0), (1.0, 0.0)),
        q=1.0,
        budget=1,
        penalty=0.0,
        lam=2.0,
    )
    prob = qaoa.encode_portopt(inst)
    assert prob.coupling(0, 1) == 1.0
    assert prob.h == (1.0, 1.0)  # k_i = -1 for each asset


def test_encode_portopt_matches_term_expansion_oracle():
    # 3-asset parameters with synthetic returns/covariances
    mu = (0.08, 0.12, 0.05)
    sigma = (
        (0.010, 0.002, 0.001),
        (0.002, 0.012, 0.002),
        (0.001, 0.002, 0.008),
    )
    inst = qaoa.PortfolioInstance(
        n=3, mu=mu, sigma=sigma, q=0.33, budget=2, penalty=0.0, lam=20.97
    )
    prob = qaoa.encode_portopt(inst)
    expected = oracles.portfolio_cost_table(mu, sigma, 0.33, 2, 0.0, 20.97)
    costs = qaoa.cost_vector(prob)
    for z in range(8):
        assert costs[z] == pytest.approx(expected[z], abs=1e-12)


def test_encode_maxcut_k5():
    prob = k5_problem()
    assert len(prob.j) == 10
    assert all(value == -0.5 for _, value in prob.j)
    assert prob.constant == 5.0
    assert prob.h == (0.0,) * 5
    assert prob.feasible_weight is None


def test_encode_maxcut_empty_and_single_edge():
    empty = qaoa.encode_maxcut(qaoa.MaxCutInstance(3, frozenset()))
    assert not empty.j and empty.constant == 0.0
    single = qaoa.encode_maxcut(qaoa.MaxCutInstance(2, frozenset({(0, 1)})))
    assert qaoa.cost_vector(single)[int("01", 2)] == 1.0
    assert qaoa.cost_vector(single)[int("00", 2)] == 0.0


def test_ising_rejects_non_finite_fields_and_constant():
    inst = qaoa.PortfolioInstance(
        n=3,
        mu=(1.0, float("nan"), 3.0),
        sigma=((0.0,) * 3,) * 3,
        q=0.0,
        budget=1,
        penalty=0.0,
        lam=2.0,
    )
    with pytest.raises(ValidationError, match=r"h\[1\]"):
        qaoa.encode_portopt(inst)
    with pytest.raises(ValidationError, match="constant"):
        qaoa.IsingProblem(n=1, j=(), h=(0.0,), constant=float("inf"))


def test_ising_rejects_feasible_weight_no_outcome_has():
    # an empty feasible set would leave the optimum undefined
    for weight in (-1, 3):
        with pytest.raises(ValidationError, match="feasible weight"):
            qaoa.IsingProblem(n=2, j=(), h=(0.0, 0.0), feasible_weight=weight)
    for weight in (0, 2):
        qaoa.IsingProblem(n=2, j=(), h=(0.0, 0.0), feasible_weight=weight)


def test_maxcut_rejects_self_loop():
    with pytest.raises(ValidationError):
        qaoa.MaxCutInstance(3, frozenset({(1, 1)}))


# --- swap network construction ---


def test_build_n5_layer_structure():
    prob = k5_problem()
    c = qaoa.build_swap_network(prob, qaoa.ParamVector((0.3,), (0.2,)))
    assert cir.depth(c, COUNTED) == 9
    two_qubit = [g for g in c.gates if g.kind in (GateKind.ZZ, GateKind.ZZ_SWAP)]
    assert len(two_qubit) == 10  # 5 layers of 2 gates each


def test_build_n3_layers_and_pairs():
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(3))
    c = qaoa.build_swap_network(prob, qaoa.ParamVector((0.3,), (0.2,)))
    kinds = [g.kind for g in c.gates if g.kind in (GateKind.ZZ, GateKind.ZZ_SWAP)]
    assert kinds == [GateKind.ZZ, GateKind.ZZ_SWAP, GateKind.ZZ]
    resident = list(range(3))
    pairs = set()
    for g in c.gates:
        if g.kind in (GateKind.ZZ, GateKind.ZZ_SWAP):
            a, b = resident[g.qubits[0]], resident[g.qubits[1]]
            pairs.add((min(a, b), max(a, b)))
            if g.kind is GateKind.ZZ_SWAP:
                w1, w2 = g.qubits
                resident[w1], resident[w2] = resident[w2], resident[w1]
    assert pairs == {(0, 1), (0, 2), (1, 2)}


def test_build_zero_angles_is_h_then_permutation():
    rng = np.random.default_rng(5)
    prob = random_problem(rng, 4)
    c = qaoa.build_swap_network(prob, qaoa.ParamVector((0.0,), (0.0,)))
    u = helpers.unitary_of(helpers.without_measurements(c))
    tau = helpers.final_wire_to_logical(c)
    expected = oracles.permutation_matrix(tau, 4) @ oracles.kron_all(
        [oracles.H_MATRIX] * 4
    )
    assert helpers.equal_up_to_phase(u, expected, 1e-12)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("p", (1, 2, 3))
def test_pair_coverage_with_prescribed_angles(n, p):
    # every pair must see exactly one interaction of angle 2*gamma_k*J per
    # repetition; the 2-wire case additionally carries an angle-0 filler
    rng = np.random.default_rng(n * 10 + p)
    prob = random_problem(rng, n)
    gammas = tuple(rng.uniform(0.1, 3.0, p))
    params = qaoa.ParamVector(gammas, tuple(rng.uniform(0.1, 1.5, p)))
    c = qaoa.build_swap_network(prob, params)
    resident = list(range(n))
    seen: dict[tuple[int, int], list[float]] = {}
    for g in c.gates:
        if g.kind in (GateKind.ZZ, GateKind.ZZ_SWAP):
            a, b = resident[g.qubits[0]], resident[g.qubits[1]]
            seen.setdefault((min(a, b), max(a, b)), []).append(g.param)
            if g.kind is GateKind.ZZ_SWAP:
                w1, w2 = g.qubits
                resident[w1], resident[w2] = resident[w2], resident[w1]
    assert set(seen) == {(i, j) for i in range(n) for j in range(i + 1, n)}
    for (i, j), angles in seen.items():
        prescribed = sorted(2.0 * g * prob.coupling(i, j) for g in gammas)
        fillers = [a for a in angles if a == 0.0]
        carried = sorted(a for a in angles if a != 0.0)
        assert carried == pytest.approx(prescribed)
        assert len(fillers) == (p if n == 2 else 0)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("p", (1, 2))
def test_unitary_matches_exponential_oracle(n, p):
    rng = np.random.default_rng(17 * n + p)
    prob = random_problem(rng, n)
    params = qaoa.ParamVector(
        tuple(rng.uniform(0, np.pi, p)), tuple(rng.uniform(0, np.pi / 2, p))
    )
    c = qaoa.build_swap_network(prob, params)
    u = helpers.unitary_of(helpers.without_measurements(c))
    tau = helpers.final_wire_to_logical(c)
    expected = oracles.permutation_matrix(tau, n) @ oracles.qaoa_unitary(
        n, prob.j, prob.h, prob.constant, params.gammas, params.betas
    )
    assert helpers.equal_up_to_phase(u, expected, 1e-8)


# --- costs and metrics ---


def test_cost_k5_split():
    prob = k5_problem()
    assert qaoa.cost_vector(prob)[int("00011", 2)] == 6.0
    assert qaoa.cost_vector(prob)[int("00000", 2)] == 0.0


def test_cost_field_only_problem():
    prob = qaoa.IsingProblem(n=3, j=(), h=(0.5, -1.0, 2.0), constant=0.25)
    expected = 0.5 - 1.0 + 2.0 + 0.25
    assert qaoa.cost_vector(prob)[int("000", 2)] == pytest.approx(expected)


def test_cost_rejects_wrong_length():
    # a 4-qubit distribution handed to a 5-qubit problem
    with pytest.raises(DimensionError):
        qaoa.metrics(k5_problem(), np.ones(2**4), "max")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_cost_matches_edge_counting(data):
    n = data.draw(st.integers(2, 8))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(all_pairs)))
    prob = qaoa.encode_maxcut(qaoa.MaxCutInstance(n, frozenset(edges)))
    costs = qaoa.cost_vector(prob)
    for z in range(2**n):
        assert costs[z] == pytest.approx(oracles.cut_size(z, n, edges))


def test_metrics_uniform_k5():
    prob = k5_problem()
    result = qaoa.metrics(prob, np.ones(32), "max")
    assert result.ar == pytest.approx(5.0 / 6.0)
    assert result.sp == pytest.approx(20.0 / 32.0)
    assert result.feasible_fraction == 1.0


def test_metrics_point_mass_on_optimum():
    prob = k5_problem()
    dist = np.zeros(32)
    dist[int("00011", 2)] = 123
    result = qaoa.metrics(prob, dist, "max")
    assert result.ar == pytest.approx(1.0)
    assert result.sp == pytest.approx(1.0)


def test_metrics_scaling_invariance_and_bounds():
    prob = k5_problem()
    rng = np.random.default_rng(2)
    dist = rng.integers(1, 50, 32).astype(float)
    scaled = 17.0 * dist
    a = qaoa.metrics(prob, dist, "max")
    b = qaoa.metrics(prob, scaled, "max")
    assert a.ar == pytest.approx(b.ar)
    assert a.sp == pytest.approx(b.sp)
    assert 0.0 <= a.sp <= 1.0


def test_metrics_budget_post_selection():
    pf = qaoa.problem_from_dict(
        {
            "type": "portopt",
            "mu": [0.1, 0.2, 0.3],
            "sigma": [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]],
            "q": 0.5,
            "B": 2,
            "A": 0.1,
            "lambda": 1.0,
        }
    )
    dist = np.zeros(8)
    for key, weight in {"011": 2.0, "110": 1.0, "111": 5.0, "000": 2.0}.items():
        dist[int(key, 2)] = weight
    result = qaoa.metrics(pf.ising, dist, pf.sense)
    assert result.feasible_fraction == pytest.approx(0.3)
    # only the two weight-2 outcomes survive post-selection
    kept = {"011": 2 / 3, "110": 1 / 3}
    costs = qaoa.cost_vector(pf.ising)
    expected_mean = sum(p * costs[int(k, 2)] for k, p in kept.items())
    assert result.mean_cost == pytest.approx(expected_mean)
    only_infeasible = np.zeros(8)
    only_infeasible[int("111", 2)] = 1.0
    with pytest.raises(NoFeasibleOutcomeError):
        qaoa.metrics(pf.ising, only_infeasible, pf.sense)


def test_metrics_zero_optimum_reports_costs():
    prob = qaoa.IsingProblem(n=2, j=(), h=(0.0, 0.0), constant=0.0)
    result = qaoa.metrics(prob, np.array([1.0, 0.0, 0.0, 0.0]), "min")
    assert result.ar is None
    assert result.mean_cost == 0.0
    assert result.opt_cost == 0.0


def test_problem_files_load(tmp_path):
    pf = qaoa.load_problem(data_path("k5_maxcut.json"))
    assert pf.sense == "max" and pf.ising.n == 5
    pf = qaoa.load_problem(data_path("portopt5.json"))
    assert pf.sense == "min" and pf.ising.feasible_weight == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "tsp"}')
    with pytest.raises(qaoa.ParseError):
        qaoa.load_problem(bad)
