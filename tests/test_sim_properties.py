"""Hypothesis properties of the superoperator engine: CPTP units, valid
density matrices, and matrix-power repetition."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from bqaoa import circuit as cir
from bqaoa import lower, qaoa, sim
from bqaoa.circuit import GateKind
from bqaoa.device import DeviceModel, EdgeCalibration, GateFlavor, QubitCalibration

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


ONE_QUBIT_KINDS = [GateKind.H, GateKind.X, GateKind.SX, GateKind.RX, GateKind.RY,
                   GateKind.RZ]
TWO_QUBIT_KINDS = [GateKind.CX, GateKind.CZ, GateKind.ZZ, GateKind.ZZ_SWAP]


@st.composite
def units(draw):
    """One random gate on a three-wire line, lowered to its scheduled unit.

    Its kind and angle agree with its lowered gates; its duration and error
    are redrawn so the noise covers a wide range.
    """
    if draw(st.booleans()):
        kind = draw(st.sampled_from(ONE_QUBIT_KINDS))
        wires = (draw(st.integers(0, 2)),)
    else:
        kind = draw(st.sampled_from(TWO_QUBIT_KINDS))
        a = draw(st.integers(0, 1))
        wires = draw(st.sampled_from([(a, a + 1), (a + 1, a)]))
    angle = draw(angles) if kind in cir.PARAM_KINDS else None
    circ = cir.CircuitIR(3, (cir.Gate(kind, wires, param=angle),))
    opt = draw(st.sampled_from(list(lower.OptLevel)))
    dev = line_device([(100.0, 80.0)] * 3, 1e-3, 1e-2, 0.0)
    (unit,) = lower.lower_circuit(circ, (0, 1, 2), dev, opt).units
    return dataclasses.replace(
        unit, duration_ns=draw(durations), error=draw(st.floats(0.0, 0.8))
    )


def superop_of(family):
    """Row-major Liouville matrix sum_K K (x) conj(K) of a Kraus family."""
    return sum(np.kron(k, k.conj()) for k in family)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_depolarized_unitary_matches_kraus_family(k, lam, seed):
    dim = 2**k
    identity = sim.depolarized_unitary(np.eye(dim, dtype=complex), lam)
    family = superop_of(oracles.depolarizing_family(lam, k))
    assert np.abs(identity - family).max() < TOL
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    closed = sim.depolarized_unitary(u, lam)
    assert np.abs(closed - family @ np.kron(u, u.conj())).max() < TOL


@settings(max_examples=60, deadline=None)
@given(qubit_times(), st.data())
def test_relaxation_superop_matches_kraus_family(times, data):
    # Durations up to 3 us, and up to 9 T2: beyond that the coherence falls
    # below 1e-4, and the Kraus family, which forms it from sqrt(1 - d) with
    # the dephasing probability d = 1 - e^{-x} near 1, loses more than 1e-12
    # to rounding.
    duration = data.draw(st.floats(0.0, min(3000.0, 9e3 * times[1])))
    closed = sim.relaxation_superop(duration, *times)
    family = superop_of(oracles.relaxation_family(duration, *times))
    assert np.abs(closed - family).max() < TOL


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
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(n))
    params = qaoa.ParamVector((data.draw(angles),), (data.draw(angles),))
    circ = qaoa.build_swap_network(prob, params)
    opt = data.draw(st.sampled_from(list(lower.OptLevel)))
    lowered = lower.lower_circuit(circ, tuple(range(n)), dev, opt)
    noise = sim.NoiseModel.from_device(
        dev, lowered.chain, scale=data.draw(st.floats(0.0, 3.0))
    )
    sim.evolve(lowered, noise).validate()
    assert any(u.kind is GateKind.MEASURE for u in lowered.units)
