import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from bqaoa import circuit as cir
from bqaoa import qaoa
from bqaoa.circuit import CircuitIR, GateKind
from bqaoa.errors import (
    MeasureInUnitaryError,
    MissingEdgeError,
    TooLargeError,
    ValidationError,
)
from bqaoa.lower import lower_circuit

COUNTED = {
    GateKind.H,
    GateKind.RX,
    GateKind.RZ,
    GateKind.ZZ,
    GateKind.ZZ_SWAP,
    GateKind.MEASURE,
}


def test_gate_validation():
    with pytest.raises(ValidationError):
        cir.Gate(GateKind.CX, (1, 1))
    with pytest.raises(ValidationError):
        cir.Gate(GateKind.RX, (0,), param=float("nan"))
    with pytest.raises(ValidationError):
        cir.Gate(GateKind.MEASURE, (0,))
    with pytest.raises(ValidationError):
        CircuitIR(1, (cir.h(3),))
    with pytest.raises(ValidationError):
        CircuitIR(2, (cir.measure(0, 0), cir.measure(1, 0)), num_clbits=1)


def test_depth_disjoint_gates():
    c = CircuitIR(2, (cir.h(0), cir.h(1)))
    assert cir.depth(c, COUNTED) == 1


def test_depth_swap_network_formula():
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(5))
    c = qaoa.build_swap_network(prob, qaoa.ParamVector((0.3,), (0.2,)))
    assert cir.depth(c, COUNTED) == 9
    prob3 = qaoa.encode_maxcut(helpers.complete_maxcut(3))
    c3 = qaoa.build_swap_network(prob3, qaoa.ParamVector((0.3, 0.1), (0.2, 0.4)))
    assert cir.depth(c3, COUNTED) == 2 + (3 + 2) * 2


def test_depth_barrier_and_subset_monotonicity():
    c = CircuitIR(2, (cir.h(0), cir.barrier(0, 1), cir.h(1)))
    assert cir.depth(c, COUNTED) == 2  # barrier forces the second H later
    assert cir.depth(c, {GateKind.H}) == 2
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(4))
    circ = qaoa.build_swap_network(prob, qaoa.ParamVector((0.3,), (0.2,)))
    full = cir.depth(circ, COUNTED)
    assert cir.depth(circ, COUNTED - {GateKind.RZ}) <= full
    assert cir.depth(circ, {GateKind.ZZ, GateKind.ZZ_SWAP}) <= full


#: fragment qubits 0, 1, 4 as wires 0, 1, 2: edges 1-0 (ecr) and 1-4 (direct)
FRAGMENT_CHAIN = (0, 1, 4)


def test_schedule_single_cx_durations(fragment):
    sc = lower_circuit(CircuitIR(3, (cir.cx(1, 2),)), FRAGMENT_CHAIN, fragment)
    assert sc.total_duration_ns == 245.3
    assert sc.cx_count == 1
    sc = lower_circuit(
        CircuitIR(3, (cir.rz(0.3, 0), cir.rz(1.2, 1))), FRAGMENT_CHAIN, fragment
    )
    assert sc.total_duration_ns == 0.0
    sc = lower_circuit(
        CircuitIR(3, (cir.cx(1, 0), cir.cx(1, 2))), FRAGMENT_CHAIN, fragment
    )
    assert sc.total_duration_ns == pytest.approx(565.3)


def test_schedule_respects_order_and_parallelism(fragment):
    c = CircuitIR(3, (cir.sx(0), cir.sx(0), cir.sx(2)))
    sc = lower_circuit(c, FRAGMENT_CHAIN, fragment)
    assert sc.start_times == (0.0, 32.0, 0.0)
    # reordering commuting disjoint-qubit gates keeps the total
    swapped = CircuitIR(3, (cir.sx(2), cir.sx(0), cir.sx(0)))
    assert (
        lower_circuit(swapped, FRAGMENT_CHAIN, fragment).total_duration_ns
        == sc.total_duration_ns
    )


def test_schedule_measure_uses_readout_length(fragment):
    c = CircuitIR(3, (cir.measure(0, 0),), num_clbits=1)
    sc = lower_circuit(c, FRAGMENT_CHAIN, fragment)
    assert sc.total_duration_ns == pytest.approx(846.22)


def test_schedule_rejects_non_edge(fragment):
    with pytest.raises(MissingEdgeError):
        lower_circuit(CircuitIR(2, (cir.cx(0, 1),)), (0, 4), fragment)


def test_unitary_of_trivial_cases():
    assert np.allclose(helpers.unitary_of(CircuitIR(2, ())), np.eye(4))
    assert np.allclose(
        helpers.unitary_of(CircuitIR(2, (cir.zz(0.0, 0, 1),))), np.eye(4)
    )
    u = helpers.unitary_of(CircuitIR(2, (cir.zz(math.pi, 0, 1),)))
    assert np.allclose(u, np.diag([-1j, 1j, 1j, -1j]))


def test_unitary_errors():
    with pytest.raises(MeasureInUnitaryError):
        helpers.unitary_of(CircuitIR(1, (cir.measure(0, 0),), num_clbits=1))
    with pytest.raises(TooLargeError):
        helpers.unitary_of(CircuitIR(11, ()))


def test_cx_control_convention():
    # control is qubits[0]: |01> (qubit 0 = 1) flips qubit 1 under CX(0, 1)
    u = helpers.unitary_of(CircuitIR(2, (cir.cx(0, 1),)))
    state = np.zeros(4)
    state[0b01] = 1.0
    assert np.allclose(u @ state, np.eye(4)[0b11])
    # ...but leaves |10> alone
    state = np.zeros(4)
    state[0b10] = 1.0
    assert np.allclose(u @ state, np.eye(4)[0b10])


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_circuits_are_unitary(data):
    n = data.draw(st.integers(2, 5))
    kinds_1q = [GateKind.H, GateKind.SX, GateKind.X, GateKind.RX, GateKind.RZ]
    kinds_2q = [GateKind.CX, GateKind.CZ, GateKind.ZZ, GateKind.ZZ_SWAP, GateKind.SWAP]
    gates = []
    for _ in range(data.draw(st.integers(1, 12))):
        if data.draw(st.booleans()):
            kind = data.draw(st.sampled_from(kinds_1q))
            q = data.draw(st.integers(0, n - 1))
            param = data.draw(st.floats(-6.3, 6.3)) if kind in cir.PARAM_KINDS else None
            gates.append(cir.Gate(kind, (q,), param=param))
        else:
            kind = data.draw(st.sampled_from(kinds_2q))
            a = data.draw(st.integers(0, n - 1))
            b = data.draw(st.integers(0, n - 1).filter(lambda x: x != a))
            param = data.draw(st.floats(-6.3, 6.3)) if kind in cir.PARAM_KINDS else None
            gates.append(cir.Gate(kind, (a, b), param=param))
    u = helpers.unitary_of(CircuitIR(n, tuple(gates)))
    assert np.allclose(u.conj().T @ u, np.eye(2**n), atol=1e-12)


def test_statevector_matches_unitary():
    c = CircuitIR(3, (cir.h(0), cir.cx(0, 1), cir.zz(0.7, 1, 2), cir.rx(0.4, 2)))
    psi = cir.statevector(c)
    assert np.allclose(psi, helpers.unitary_of(c)[:, 0])


def test_text_dump_roundtrip_format():
    c = CircuitIR(
        2, (cir.h(0), cir.zz(0.25, 0, 1), cir.measure(0, 0), cir.measure(1, 1)),
        num_clbits=2,
    )
    text = cir.to_text(c)
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "H 0"
    assert lines[2] == "ZZ 0,1 theta=0.25"
    assert lines[3] == "MEASURE 0,0"
    assert cir.to_text(c) == text  # deterministic
