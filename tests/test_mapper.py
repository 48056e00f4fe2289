import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from problem_strategies import maxcut_problems, portfolio_problems
from bqaoa import circuit as cir
from bqaoa import data_path, device, lower, mapper, optimize, qaoa
from bqaoa.circuit import CircuitIR, Gate, GateKind
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


def test_selection_builds_no_gates(ehningen, monkeypatch):
    """Scoring a chain needs no hardware-gate expansion and no whole-circuit
    lowering: selection over every 8-qubit chain of ehningen constructs no
    ``Gate`` and calls no ``lower_circuit``."""
    template = optimize.selection_template(qaoa.encode_maxcut(helpers.complete_maxcut(8)))
    pair = benchmark_circuit(2)
    built, lowered = [], []
    original = Gate.__post_init__

    def counting(self):
        built.append(self.kind)
        original(self)

    def counting_lower(*args, **kwargs):
        lowered.append(args[1])
        return lower_circuit(*args, **kwargs)

    monkeypatch.setattr(Gate, "__post_init__", counting)
    monkeypatch.setattr(lower, "lower_circuit", counting_lower)
    monkeypatch.setattr(mapper, "lower_circuit", counting_lower, raising=False)
    for opt in OptLevel:
        select(ehningen, 8, Strategy.GLOBAL, template, opt)
    assert built == [] and lowered == []
    cir.h(0)  # the counters do see a construction and a lowering
    lower.lower_circuit(pair, (0, 1), ehningen)
    assert built == [GateKind.H] and lowered == [(0, 1)]


def selection_fields(dev, k, strategy, template, opt):
    """Every field of the selection, floats as hex, or the NoChainError text."""
    try:
        sel = select(dev, k, strategy, template, opt)
    except NoChainError as exc:
        return str(exc)
    return tuple(v.hex() if isinstance(v, float) else v for v in vars(sel).values())


@pytest.mark.parametrize("name", ["ehningen", "fragment", "synthetic5"])
def test_selection_matches_lowering_reference(name, request, monkeypatch):
    """Scoring from the per-call table agrees bit for bit with lowering
    every chain, for every strategy and opt level at n = 2..8."""
    dev = request.getfixturevalue(name)
    for k in range(2, min(8, dev.num_qubits) + 1):
        template = optimize.selection_template(
            qaoa.encode_maxcut(helpers.complete_maxcut(k))
        )
        for strategy in Strategy:
            for opt in OptLevel:
                fast = selection_fields(dev, k, strategy, template, opt)
                with monkeypatch.context() as patch:
                    patch.setattr(mapper, "_scored", helpers.scored_by_lowering)
                    reference = selection_fields(dev, k, strategy, template, opt)
                assert fast == reference, (k, strategy, opt)


@functools.cache
def bundled_device(name):
    return device.load_device(data_path(name))


def barrier_template(k):
    """One- and two-qubit gates around a barrier over all k wires, then a
    measurement per wire: placements of arity 1, 2 and k."""
    gates = [cir.h(w) for w in range(k)]
    gates += [cir.zz(0.7, w, w + 1) for w in range(k - 1)]
    gates.append(cir.barrier(*range(k)))
    gates += [cir.cx(w + 1, w) for w in range(0, k - 1, 2)]
    gates += [cir.rx(0.3, w) for w in range(k)]
    gates += [cir.measure(w, w) for w in range(k)]
    return CircuitIR(k, tuple(gates), num_clbits=k)


def selection_templates(max_n):
    def of(drawn):
        return optimize.selection_template(drawn[0])

    return st.one_of(
        maxcut_problems(max_n=max_n).map(of),
        portfolio_problems(max_n=max_n).map(of),
        st.integers(2, max_n).map(barrier_template),
    )


#: bundled device -> the longest chain the property test draws on it
LONGEST_DRAWN_CHAIN = {
    "ehningen.json": 8, "ehningen_fragment.json": 3, "synthetic5.json": 5,
}


@pytest.mark.parametrize("opt", list(OptLevel))
@pytest.mark.parametrize("name", list(LONGEST_DRAWN_CHAIN))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_scored_rows_equal_lowering_reference(name, opt, data):
    """Every (chain, score, duration) row equals, by ``==``, the one read
    back from lowering the chain's whole circuit, for any non-empty subset
    of the candidate chains in any order."""
    dev = bundled_device(name)
    template = data.draw(selection_templates(LONGEST_DRAWN_CHAIN[name]))
    candidates = enumerate_chains(dev, template.num_qubits)
    chains = data.draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    rows = mapper._scored(dev, chains, template, opt)
    assert rows == helpers.scored_by_lowering(dev, chains, template, opt)


def test_selection_lowers_each_placement_once(ehningen, monkeypatch):
    """Global selection at k=8 calls ``lower_gate`` once per distinct
    (kind, param, physical qubits), not once per gate and chain."""
    rng = np.random.default_rng(18)
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    edges = frozenset(pair for pair in pairs if rng.random() < 0.5)
    template = optimize.selection_template(qaoa.encode_maxcut(qaoa.MaxCutInstance(8, edges)))
    chains = enumerate_chains(ehningen, 8)
    placements = {
        (g.kind, g.param, tuple(chain[w] for w in g.qubits))
        for chain in chains for g in template.gates
    }
    calls = []

    def counting(*args):
        calls.append(args[0])
        return lower.lower_gate(*args)

    monkeypatch.setattr(mapper, "lower_gate", counting)
    select(ehningen, 8, Strategy.GLOBAL, template, OptLevel.ZZ_SWAP_OPT)
    assert len(calls) == len(placements) < len(chains) * len(template.gates) // 4
