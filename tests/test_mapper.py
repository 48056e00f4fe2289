import numpy as np
import pytest

import helpers
import oracles
from bqaoa import mapper, qaoa
from bqaoa.device import DeviceModel, EdgeCalibration, GateFlavor, QubitCalibration
from bqaoa.errors import NoChainError
from bqaoa.lower import OptLevel, lower_circuit
from bqaoa.mapper import Strategy, enumerate_chains, fidelity_score, select


def build_device(num_qubits, edge_specs, sx_errors=None, readout=0.01):
    """edge_specs: list of (a, b, flavor, cx_error, duration)."""
    sx_errors = sx_errors or [0.0002] * num_qubits
    qubits = tuple(
        QubitCalibration(
            t1_us=150.0,
            t2_us=140.0,
            sx_error=sx_errors[q],
            readout_error=readout,
            prob_meas0_prep1=readout,
            prob_meas1_prep0=readout,
            readout_length_ns=846.22,
        )
        for q in range(num_qubits)
    )
    edges = tuple(
        EdgeCalibration(a, b, flavor, err, dur)
        for a, b, flavor, err, dur in edge_specs
    )
    return DeviceModel("synthetic", num_qubits, qubits, edges)


def benchmark_circuit(k):
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(k))
    return qaoa.build_swap_network(prob, qaoa.ParamVector((0.8,), (0.4,)))


def test_enumerate_path_graph():
    dev = build_device(
        3,
        [
            (0, 1, GateFlavor.ECR_CX, 0.008, 320.0),
            (1, 2, GateFlavor.ECR_CX, 0.007, 330.0),
        ],
    )
    assert enumerate_chains(dev, 3) == [(0, 1, 2)]
    assert enumerate_chains(dev, 2) == [(0, 1), (1, 2)]


def test_enumerate_respects_flavor_filter():
    dev = build_device(
        3,
        [
            (0, 1, GateFlavor.ECR_CX, 0.008, 320.0),
            (1, 2, GateFlavor.DIRECT_CX, 0.007, 250.0),
        ],
    )
    assert enumerate_chains(dev, 2, GateFlavor.ECR_CX) == [(0, 1)]
    assert enumerate_chains(dev, 3, GateFlavor.ECR_CX) == []


def test_enumerate_ehningen_ecr_chains(ehningen):
    chains = enumerate_chains(ehningen, 5, GateFlavor.ECR_CX)
    assert (9, 8, 11, 14, 16) in chains
    assert enumerate_chains(ehningen, 6, GateFlavor.ECR_CX) == []


@pytest.mark.parametrize("seed", range(6))
def test_enumerate_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = 8
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [p for p in pairs if rng.random() < 0.35]
    dev = build_device(
        n, [(a, b, GateFlavor.ECR_CX, 0.008, 320.0) for a, b in chosen]
    )
    for k in (2, 3, 4):
        assert set(enumerate_chains(dev, k)) == oracles.all_simple_paths(
            n, chosen, k
        )


def test_fidelity_score_product(fragment):
    from bqaoa import circuit as cir
    from bqaoa.circuit import CircuitIR

    circ = CircuitIR(
        2, (cir.cx(0, 1), cir.measure(0, 0), cir.measure(1, 1)), num_clbits=2
    )
    dev = build_device(
        2, [(0, 1, GateFlavor.ECR_CX, 0.0083, 320.0)], sx_errors=[0.0, 0.0]
    )
    lowered = lower_circuit(circ, (0, 1), dev)
    score = fidelity_score(dev, (0, 1), lowered)
    assert score == pytest.approx((1 - 0.0083) * 0.99**2)


def test_fidelity_error_free_device_is_one():
    dev = build_device(
        2, [(0, 1, GateFlavor.ECR_CX, 0.0, 320.0)], sx_errors=[0.0, 0.0], readout=0.0
    )
    lowered = lower_circuit(benchmark_circuit(2), (0, 1), dev)
    assert fidelity_score(dev, (0, 1), lowered) == 1.0


def test_fidelity_reversal_invariance(synthetic5):
    # even wire counts keep the layer pairings symmetric under reversal, so
    # both orientations place the same gate kinds on the same edges
    circ = benchmark_circuit(4)
    chain = (0, 1, 2, 3)
    a = fidelity_score(
        synthetic5, chain, lower_circuit(circ, chain, synthetic5)
    )
    b = fidelity_score(
        synthetic5, chain[::-1], lower_circuit(circ, chain[::-1], synthetic5)
    )
    assert a == pytest.approx(b)


def test_fidelity_reversal_invariance_uniform_edges():
    # with identical calibration on every edge the orientation never matters
    dev = build_device(
        3,
        [
            (0, 1, GateFlavor.ECR_CX, 0.008, 320.0),
            (1, 2, GateFlavor.ECR_CX, 0.008, 320.0),
        ],
    )
    circ = benchmark_circuit(3)
    a = fidelity_score(dev, (0, 1, 2), lower_circuit(circ, (0, 1, 2), dev))
    b = fidelity_score(dev, (2, 1, 0), lower_circuit(circ, (2, 1, 0), dev))
    assert a == pytest.approx(b)


def mixed_line_device():
    # 0-1-2-3-4-5 line, alternating flavors, qubit 5 has a poor sx error
    return build_device(
        6,
        [
            (0, 1, GateFlavor.ECR_CX, 0.004, 320.0),
            (1, 2, GateFlavor.DIRECT_CX, 0.003, 245.3),
            (2, 3, GateFlavor.ECR_CX, 0.005, 330.0),
            (3, 4, GateFlavor.DIRECT_CX, 0.004, 250.0),
            (4, 5, GateFlavor.DIRECT_CX, 0.009, 260.0),
        ],
        sx_errors=[0.0002, 0.0002, 0.0002, 0.0002, 0.0002, 0.002],
    )


def test_select_global_dominates_flavor_strategies():
    dev = mixed_line_device()
    circ = benchmark_circuit(2)
    scores = {}
    for strategy in (Strategy.ECR_ONLY, Strategy.DIRECT_ONLY, Strategy.GLOBAL):
        scores[strategy] = select(dev, 2, strategy, circ).fidelity_score
    assert scores[Strategy.GLOBAL] >= scores[Strategy.ECR_ONLY]
    assert scores[Strategy.GLOBAL] >= scores[Strategy.DIRECT_ONLY]


def test_select_global_can_pick_direct_chain():
    dev = mixed_line_device()
    sel = select(dev, 2, Strategy.GLOBAL, benchmark_circuit(2))
    # best 2-chain is the lowest-error direct edge (1, 2)
    assert sel.chain == (1, 2)
    assert sel.flavors == (GateFlavor.DIRECT_CX,)


def test_select_bipotent_constraints():
    dev = mixed_line_device()
    sel = select(dev, 3, Strategy.BIPOTENT, benchmark_circuit(3))
    flavors = set(sel.flavors)
    assert flavors == {GateFlavor.ECR_CX, GateFlavor.DIRECT_CX}
    mean_sx = dev.mean_sx_error()
    mean_cx = dev.mean_cx_error()
    assert all(dev.qubits[q].sx_error < mean_sx for q in sel.chain)
    assert all(
        dev.edge_between(a, b).cx_error < mean_cx
        for a, b in zip(sel.chain, sel.chain[1:])
    )


def test_select_bipotent_unsatisfiable_raises():
    dev = build_device(
        3,
        [
            (0, 1, GateFlavor.ECR_CX, 0.008, 320.0),
            (1, 2, GateFlavor.ECR_CX, 0.007, 330.0),
        ],
    )
    with pytest.raises(NoChainError):
        select(dev, 3, Strategy.BIPOTENT, benchmark_circuit(3))


def test_select_no_flavor_chain_raises():
    dev = build_device(2, [(0, 1, GateFlavor.ECR_CX, 0.008, 320.0)])
    with pytest.raises(NoChainError):
        select(dev, 2, Strategy.DIRECT_ONLY, benchmark_circuit(2))


def brute_force_select(dev, k, strategy, circ, opt=OptLevel.DEFAULT):
    """Oracle: score every admissible chain (both orientations) directly."""
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
            mean_sx = dev.mean_sx_error()
            mean_cx = dev.mean_cx_error()
            if not all(dev.qubits[q].sx_error < mean_sx for q in chain):
                continue
            if not all(
                dev.edge_between(a, b).cx_error < mean_cx
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
        lowered = lower_circuit(circ, chain, dev, opt)
        scored.append(
            (chain, fidelity_score(dev, chain, lowered), lowered.total_duration_ns)
        )
    if strategy is Strategy.BIPOTENT:
        return min(scored, key=lambda r: (r[2], -r[1], r[0]))[0]
    return min(scored, key=lambda r: (-r[1], r[0]))[0]


@pytest.mark.parametrize("seed", range(8))
def test_select_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(6, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    specs = []
    for a, b in pairs:
        if rng.random() < 0.4:
            flavor = GateFlavor.ECR_CX if rng.random() < 0.5 else GateFlavor.DIRECT_CX
            specs.append(
                (a, b, flavor, float(rng.uniform(0.002, 0.02)),
                 float(rng.uniform(220, 450)))
            )
    dev = build_device(
        n, specs, sx_errors=list(rng.uniform(0.0001, 0.001, n))
    )
    k = 4
    circ = benchmark_circuit(k)
    for strategy in Strategy:
        opt = OptLevel.ZZ_SWAP_OPT if strategy is Strategy.BIPOTENT else OptLevel.DEFAULT
        expected = brute_force_select(dev, k, strategy, circ, opt)
        if expected is None:
            with pytest.raises(NoChainError):
                select(dev, k, strategy, circ, opt)
        else:
            assert select(dev, k, strategy, circ, opt).chain == expected
