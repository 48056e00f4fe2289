"""Acceptance suite: one test per top-level criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.
"""

import json
import math
import time

import numpy as np
import pytest

import helpers
import oracles
from bqaoa import circuit as cir
from bqaoa import data_path, device, lower, mapper, optimize, qaoa, sim
from bqaoa.circuit import CircuitIR, GateKind
from bqaoa.device import DeviceModel, EdgeCalibration, GateFlavor, QubitCalibration
from bqaoa.errors import NoChainError
from bqaoa.lower import OptLevel, Polarity, apply_rule
from bqaoa.mapper import Strategy
from bqaoa.optimize import OptimizerConfig

COUNTED = {
    GateKind.H,
    GateKind.RX,
    GateKind.RZ,
    GateKind.ZZ,
    GateKind.ZZ_SWAP,
    GateKind.MEASURE,
}


def random_problem(rng, n):
    couplings = tuple(
        ((i, j), float(rng.normal())) for i in range(n) for j in range(i + 1, n)
    )
    return qaoa.IsingProblem(
        n=n,
        j=couplings,
        h=tuple(float(v) for v in rng.normal(size=n)),
        constant=float(rng.normal()),
    )


def test_criterion_01_depth_formula():
    start = time.monotonic()
    for n in range(2, 9):
        prob = qaoa.encode_maxcut(helpers.complete_maxcut(n))
        for p in range(1, 6):
            params = qaoa.ParamVector((0.37,) * p, (0.21,) * p)
            circ = qaoa.build_swap_network(prob, params)
            assert cir.depth(circ, COUNTED) == 2 + (n + 2) * p, (n, p)
    assert time.monotonic() - start < 1.0


def test_criterion_02_swap_network_unitary_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4, 5):
        for p in (1, 2):
            prob = random_problem(rng, n)
            params = qaoa.ParamVector(
                tuple(rng.uniform(0, np.pi, p)),
                tuple(rng.uniform(0, np.pi / 2, p)),
            )
            circ = qaoa.build_swap_network(prob, params)
            u = helpers.unitary_of(helpers.without_measurements(circ))
            tau = helpers.final_wire_to_logical(circ)
            expected = oracles.permutation_matrix(tau, n) @ oracles.qaoa_unitary(
                n, prob.j, prob.h, prob.constant, params.gammas, params.betas
            )
            overlap = abs(np.trace(u.conj().T @ expected)) / 2**n
            assert abs(overlap - 1.0) <= 1e-8, (n, p)
    assert time.monotonic() - start < 30.0


def test_criterion_03_duration_table_exact():
    dev = device.load_device(data_path("ehningen_fragment.json"))
    ecr = dev.edge_between(1, 0)
    direct = dev.edge_between(1, 4)
    assert direct.cx_duration_ns == 245.3
    assert ecr.cx_duration_ns == 320.0

    def dur(target, edge, opt, theta=0.5):
        return apply_rule(target, theta, 0, 1, edge, dev, opt).duration_ns

    assert dur(GateKind.ZZ, direct, OptLevel.DEFAULT) == 490.0
    assert dur(GateKind.ZZ, ecr, OptLevel.DEFAULT) == 640.0
    assert dur(GateKind.CZ, direct, OptLevel.DEFAULT) == 309.3
    assert dur(GateKind.CZ, ecr, OptLevel.DEFAULT) == 384.0
    assert dur(GateKind.CZ, ecr, OptLevel.ZZ_OPT) == 352.0
    assert dur(GateKind.ZZ_SWAP, direct, OptLevel.DEFAULT) == 800.0
    assert dur(GateKind.ZZ_SWAP, ecr, OptLevel.DEFAULT) == 992.0
    swap_opt = apply_rule(
        GateKind.ZZ_SWAP, 0.5, 0, 1, ecr, dev, OptLevel.ZZ_SWAP_OPT
    )
    assert swap_opt.duration_ns == 992.0
    assert swap_opt.cx_count == 0


def test_criterion_04_flavor_means_table():
    dev = device.load_device(data_path("ehningen_table1.json"))
    summary = device.summarize(dev)
    ecr = summary.by_flavor[GateFlavor.ECR_CX]
    direct = summary.by_flavor[GateFlavor.DIRECT_CX]
    assert 100 * ecr.mean_cx_error == pytest.approx(0.83, abs=0.01)
    assert ecr.mean_cx_duration_ns == pytest.approx(382.22, abs=0.01)
    assert 100 * direct.mean_cx_error == pytest.approx(0.79, abs=0.01)
    assert direct.mean_cx_duration_ns == pytest.approx(256.89, abs=0.01)
    assert summary.cx_error_reduction_pct == pytest.approx(4.82, abs=0.01)
    assert summary.cx_duration_reduction_pct == pytest.approx(32.79, abs=0.01)


@pytest.fixture(scope="module")
def k5_sweep():
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    cfg = OptimizerConfig(max_evals=20000, initial_grid=8, seed=0)
    return optimize.optimize_depth_sweep(problem.ising, problem.sense, [1, 2, 3], cfg)


def test_criterion_05_k5_published_point_p1(k5_sweep):
    # Two-sided bands around the published p=1 operating point.  The exact
    # landscape of this ansatz attains a strictly better optimum (verified
    # independently against a dense grid scan and the closed-form per-edge
    # expectation), so a correct maximizer cannot also sit inside these
    # bands; the assertion is kept as specified.
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    evaluator = optimize.exact_expectation_evaluator(problem.ising, problem.sense)
    result = k5_sweep[1]
    metrics = evaluator(result.params)
    assert result.ar == pytest.approx(0.914, abs=0.02)
    assert metrics.sp == pytest.approx(0.8779, abs=0.03)


def test_criterion_05_k5_higher_depth_thresholds(k5_sweep):
    start = time.monotonic()
    assert k5_sweep[2].ar >= 0.95
    assert k5_sweep[3].ar >= 0.985
    assert time.monotonic() - start < 300.0


def test_criterion_06_portfolio_substitute():
    problem = qaoa.load_problem(data_path("portopt5.json"))
    prob = problem.ising
    assert prob.feasible_weight == 3
    cfg = OptimizerConfig(max_evals=20000, initial_grid=8, seed=0)
    sweep = optimize.optimize_depth_sweep(prob, "min", [1, 2, 3], cfg)
    assert sweep[2].ar >= sweep[1].ar - 0.01
    assert sweep[3].ar >= sweep[2].ar - 0.01

    # post-selection keeps exactly the Hamming-weight-3 outcomes and the
    # metrics agree with a direct enumeration over all 32 bitstrings
    circ = qaoa.build_swap_network(prob, sweep[1].params)
    dist = sim.ideal_distribution(circ)
    result = qaoa.metrics(prob, dist, "min")
    doc = json.loads(data_path("portopt5.json").read_text())
    costs = oracles.portfolio_cost_table(
        doc["mu"], doc["sigma"], doc["q"], doc["B"], doc["A"], doc["lambda"]
    )
    int_dist = dict(enumerate(dist))
    mean, opt, sp = oracles.distribution_metrics(
        costs, int_dist, "min", feasible_weight=3
    )
    assert result.mean_cost == pytest.approx(mean, abs=1e-9)
    assert result.opt_cost == pytest.approx(opt, abs=1e-9)
    assert result.ar == pytest.approx(mean / opt, abs=1e-9)
    assert result.sp == pytest.approx(sp, abs=1e-9)
    # post-selection really discarded the off-budget mass
    feasible_mass = sum(v for z, v in enumerate(dist) if z.bit_count() == 3)
    assert feasible_mass < 1.0 - 1e-6
    assert result.feasible_fraction == pytest.approx(feasible_mass, abs=1e-12)


def test_criterion_07_decomposition_equivalence():
    dev = device.load_device(data_path("ehningen_fragment.json"))
    edges = (dev.edge_between(1, 0), dev.edge_between(1, 4))
    rng = np.random.default_rng(7)
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, 50)
    for edge in edges:
        for target in (GateKind.ZZ, GateKind.CZ, GateKind.ZZ_SWAP):
            for opt in OptLevel:
                for polarity in Polarity:
                    for theta in angles:
                        app = apply_rule(
                            target, float(theta), 0, 1, edge, dev, opt, polarity
                        )
                        u = helpers.unitary_of(CircuitIR(2, app.gates))
                        param = float(theta) if target is not GateKind.CZ else None
                        expected = cir.local_matrix(target, param)
                        overlap = abs(np.trace(u.conj().T @ expected)) / 4.0
                        assert abs(overlap - 1.0) <= 1e-9, (
                            edge.flavor, target, opt, polarity, theta,
                        )


def test_criterion_08a_all_ecr_zzswapopt_is_cx_free():
    dev = device.load_device(data_path("ehningen.json"))
    chain = (9, 8, 11, 14, 16)
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    circ = qaoa.build_swap_network(
        problem.ising, qaoa.ParamVector((0.419, 0.5), (0.262, 0.25))
    )
    lowered = lower.lower_circuit(circ, chain, dev, OptLevel.ZZ_SWAP_OPT)
    link_flavors = {
        dev.edge_between(a, b).flavor for a, b in zip(chain, chain[1:])
    }
    assert link_flavors == {GateFlavor.ECR_CX}
    assert lowered.cx_count == 0


def test_criterion_08b_metrics_nonincreasing_in_noise_scale():
    dev = device.load_device(data_path("synthetic5.json"))
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    params = qaoa.ParamVector((0.419,), (0.262,))
    shots = 50000
    rows = []
    for scale in (0.0, 1.0, 2.0):
        metrics, _ = optimize.evaluate_noisy(
            dev, (0, 1, 2, 3, 4), problem.ising, "max", params,
            OptLevel.DEFAULT, shots=shots, seed=404, noise_scale=scale,
        )
        rows.append(metrics)
    ar_slack = 3 * 2.5 / math.sqrt(shots) / 6.0  # 3 sigma of the cut mean
    sp_slack = 3 * math.sqrt(0.25 / shots)
    assert rows[1].ar <= rows[0].ar + ar_slack
    assert rows[2].ar <= rows[1].ar + ar_slack
    assert rows[1].sp <= rows[0].sp + sp_slack
    assert rows[2].sp <= rows[1].sp + sp_slack


def test_criterion_08c_qpt_infidelity_nondecreasing_in_repetitions():
    dev = device.load_device(data_path("ehningen_fragment.json"))
    edge = dev.edge_between(1, 0)
    for target, opt in (
        (GateKind.ZZ, OptLevel.ZZ_OPT),
        (GateKind.ZZ_SWAP, OptLevel.ZZ_SWAP_OPT),
    ):
        rows = sim.qpt_infidelities(
            dev, edge, target, opt, repetitions=(1, 5, 10), angles=(0.9,),
            noise_scale=1.0,
        )
        by_variant: dict[str, list[float]] = {}
        for row in sorted(rows, key=lambda r: r["repetitions"]):
            by_variant.setdefault(row["variant"], []).append(row["infidelity"])
        for variant, series in by_variant.items():
            assert series == sorted(series), (target, variant, series)


def test_criterion_09_process_fidelity_values():
    ideal = sim.choi_of(sim.unitary_channel(np.eye(4, dtype=complex)))
    assert sim.process_fidelity(ideal, ideal) == pytest.approx(1.0, abs=1e-9)
    for lam in (0.1, 0.37, 0.9):
        noisy = sim.choi_of(sim.Channel(2, sim.depolarized_unitary(np.eye(4), lam)))
        assert sim.process_fidelity(ideal, noisy) == pytest.approx(
            1.0 - 15.0 * lam / 16.0, abs=1e-9
        )


def _random_bipotent_device(rng):
    n = int(rng.integers(6, 11))
    qubits = tuple(
        QubitCalibration(
            t1_us=float(rng.uniform(80, 300)),
            t2_us=float(rng.uniform(40, 250)),
            sx_error=float(rng.uniform(0.0001, 0.001)),
            readout_error=0.01,
            prob_meas0_prep1=0.01,
            prob_meas1_prep0=0.01,
            readout_length_ns=846.22,
        )
        for _ in range(n)
    )
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                flavor = GateFlavor.ECR_CX if rng.random() < 0.5 else GateFlavor.DIRECT_CX
                edges.append(
                    EdgeCalibration(
                        i, j, flavor,
                        float(rng.uniform(0.002, 0.02)),
                        float(rng.uniform(220, 450)),
                    )
                )
    if not edges:
        edges.append(EdgeCalibration(0, 1, GateFlavor.ECR_CX, 0.008, 320.0))
    return DeviceModel("rand", n, qubits, tuple(edges))


def _oracle_select(dev, k, strategy, circ, opt):
    edges = [e.pair for e in dev.edges]
    chains = sorted(oracles.all_simple_paths(dev.num_qubits, edges, k))
    admissible = []
    for chain in chains:
        flavors = [dev.edge_between(a, b).flavor for a, b in zip(chain, chain[1:])]
        if strategy is Strategy.ECR_ONLY and set(flavors) != {GateFlavor.ECR_CX}:
            continue
        if strategy is Strategy.DIRECT_ONLY and set(flavors) != {GateFlavor.DIRECT_CX}:
            continue
        if strategy is Strategy.BIPOTENT:
            if not all(
                dev.qubits[q].sx_error < dev.mean_sx_error() for q in chain
            ):
                continue
            if not all(
                dev.edge_between(a, b).cx_error < dev.mean_cx_error()
                for a, b in zip(chain, chain[1:])
            ):
                continue
            if len(set(flavors)) != 2:
                continue
        admissible.append(chain)
    if not admissible:
        return None
    scored = []
    for chain in admissible:
        lowered = lower.lower_circuit(circ, chain, dev, opt)
        scored.append(
            (
                chain,
                mapper.fidelity_score(dev, chain, lowered),
                lowered.total_duration_ns,
            )
        )
    if strategy is Strategy.BIPOTENT:
        return min(scored, key=lambda r: (r[2], -r[1], r[0]))[0]
    return min(scored, key=lambda r: (-r[1], r[0]))[0]


def test_criterion_10_chain_selection_matches_oracle():
    rng = np.random.default_rng(1010)
    k = 4
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(k))
    circ = qaoa.build_swap_network(prob, qaoa.ParamVector((0.8,), (0.4,)))
    for _ in range(20):
        dev = _random_bipotent_device(rng)
        for strategy in Strategy:
            opt = (
                OptLevel.ZZ_SWAP_OPT
                if strategy is Strategy.BIPOTENT
                else OptLevel.DEFAULT
            )
            expected = _oracle_select(dev, k, strategy, circ, opt)
            if expected is None:
                with pytest.raises(NoChainError):
                    mapper.select(dev, k, strategy, circ, opt)
            else:
                got = mapper.select(dev, k, strategy, circ, opt)
                assert got.chain == expected

    # on the shipped 27-qubit file the longest chain over ECR links pinned
    # by the text has exactly five qubits
    full = device.load_device(data_path("ehningen.json"))
    pinned = DeviceModel(
        full.name,
        full.num_qubits,
        full.qubits,
        tuple(
            e
            for e in full.edges
            if e.flavor_source == "paper" and e.flavor is GateFlavor.ECR_CX
        ),
        full.single_qubit_durations_ns,
        full.cr_scale,
    )
    assert mapper.enumerate_chains(pinned, 5, GateFlavor.ECR_CX)
    assert not mapper.enumerate_chains(pinned, 6, GateFlavor.ECR_CX)


def test_criterion_11_benchmark_rerun_is_byte_identical():
    dev = device.load_device(data_path("synthetic5.json"))
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    cfg = OptimizerConfig(max_evals=2000, initial_grid=5, seed=42)

    def run():
        rows = optimize.run_benchmark(
            dev, problem, list(Strategy), [OptLevel.DEFAULT, OptLevel.ZZ_SWAP_OPT],
            [1, 2], cfg, shots=20000, noise_scale=1.0,
        )
        return optimize.runs_to_csv(rows).encode()

    assert run() == run()
