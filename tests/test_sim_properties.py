"""Hypothesis properties of the superoperator engine: CPTP units, valid
density matrices, and matrix-power repetition."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bqaoa import circuit as cir
from bqaoa import lower, qaoa, sim
from bqaoa.circuit import GateKind
from bqaoa.device import DeviceModel, EdgeCalibration, GateFlavor, QubitCalibration
from bqaoa.lower import LoweredUnit

TOL = 1e-12
angles = st.floats(-2 * np.pi, 2 * np.pi)
durations = st.floats(0.0, 3000.0)


@st.composite
def qubit_times(draw):
    """(T1, T2) in us with T2 <= 2 T1."""
    t1 = draw(st.floats(0.5, 500.0))
    return t1, t1 * draw(st.floats(0.01, 2.0))


@st.composite
def noise_models(draw, n):
    qubits = tuple(
        sim.QubitNoise(*draw(qubit_times()), confusion=np.eye(2)) for _ in range(n)
    )
    return sim.NoiseModel(qubits=qubits, scale=draw(st.floats(0.0, 3.0)))


@st.composite
def units(draw):
    """A one- or two-wire unit on a three-wire register, with random gates."""
    if draw(st.booleans()):
        w = draw(st.integers(0, 2))
        wires = (w,)
        gates = (cir.rx(draw(angles), w), cir.rz(draw(angles), w), cir.sx(w))
    else:
        a = draw(st.integers(0, 1))
        wires = draw(st.sampled_from([(a, a + 1), (a + 1, a)]))
        gates = (
            cir.rz(draw(angles), wires[0]),
            cir.cx(*wires),
            cir.zz(draw(angles), *wires),
            cir.ry(draw(angles), wires[1]),
        )
    return LoweredUnit(
        kind=gates[-1].kind,
        wires=wires,
        physical=wires,
        gates=gates,
        duration_ns=draw(durations),
        cx_count=0,
        error=draw(st.floats(0.0, 0.8)),
        label="random",
    )


def assert_cptp(channel):
    choi = sim.choi_of(channel)
    d = choi.dim
    assert np.abs(choi.data - choi.data.conj().T).max() < TOL
    assert np.linalg.eigvalsh(choi.data).min() >= -TOL
    # trace over the output index leaves I/d
    partial = np.einsum("iojo->ij", choi.data.reshape(d, d, d, d))
    assert np.abs(partial - np.eye(d) / d).max() < TOL


@settings(max_examples=60, deadline=None)
@given(units(), st.lists(durations, min_size=2, max_size=2), noise_models(3))
def test_unit_channel_is_cptp(unit, idle, noise):
    assert_cptp(sim.unit_channel(unit, idle, noise))


@settings(max_examples=30, deadline=None)
@given(units(), st.lists(durations, min_size=2, max_size=2), noise_models(3),
       st.integers(1, 12))
def test_repeated_matches_explicit_composition(unit, idle, noise, times):
    channel = sim.unit_channel(unit, idle, noise)

    def compose(rho):
        for _ in range(times):
            rho = channel.apply(rho)
        return rho

    explicit = oracles.probe_choi(compose, 2**channel.num_qubits)
    repeated = sim.choi_of(channel.repeated(times)).data
    assert np.abs(repeated - explicit).max() < TOL
    assert_cptp(channel.repeated(times))


def line_device(times, sx_error, cx_error, readout):
    qubits = tuple(
        QubitCalibration(
            t1_us=t1,
            t2_us=t2,
            sx_error=sx_error,
            readout_error=readout,
            prob_meas0_prep1=readout,
            prob_meas1_prep0=readout,
            readout_length_ns=800.0,
        )
        for t1, t2 in times
    )
    flavors = (GateFlavor.ECR_CX, GateFlavor.DIRECT_CX)
    edges = tuple(
        EdgeCalibration(q, q + 1, flavors[q % 2], cx_error, 300.0 + 40 * q)
        for q in range(len(times) - 1)
    )
    return DeviceModel("line", len(times), qubits, edges)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_evolve_output_is_a_density_matrix(data):
    n = data.draw(st.integers(2, 4))
    dev = line_device(
        [data.draw(qubit_times()) for _ in range(n)],
        sx_error=data.draw(st.floats(0.0, 0.05)),
        cx_error=data.draw(st.floats(0.0, 0.2)),
        readout=data.draw(st.floats(0.0, 0.1)),
    )
    prob = qaoa.encode_maxcut(qaoa.MaxCutInstance.complete(n))
    params = qaoa.ParamVector((data.draw(angles),), (data.draw(angles),))
    circ = qaoa.build_swap_network(prob, params)
    opt = data.draw(st.sampled_from(list(lower.OptLevel)))
    lowered = lower.lower_circuit(circ, tuple(range(n)), dev, opt)
    noise = sim.NoiseModel.from_device(
        dev, lowered.chain, scale=data.draw(st.floats(0.0, 3.0))
    )
    sim.evolve(lowered, noise).validate()
    assert any(u.kind is GateKind.MEASURE for u in lowered.units)
