"""Hypothesis properties of the superoperator engine: CPTP units, closed-form
real matrices over the operator basis, valid density matrices, matrix-power
repetition, and the pure-state shortcut of process fidelity."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from bqaoa import circuit as cir
from bqaoa import lower, qaoa, sim
from bqaoa.circuit import GateKind
from bqaoa.device import DeviceModel, EdgeCalibration, GateFlavor, QubitCalibration
from bqaoa.errors import ValidationError

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
    """Random T1 and T2 per qubit, and a perfect readout."""
    qubits = tuple(
        QubitCalibration(*draw(qubit_times()), sx_error=0.0, readout_error=0.0,
                         prob_meas0_prep1=0.0, prob_meas1_prep0=0.0,
                         readout_length_ns=800.0)
        for _ in range(n)
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


LINE = line_device([(100.0, 80.0)] * 3, 1e-3, 1e-2, 0.0)
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
    (unit,) = lower.lower_circuit(circ, (0, 1, 2), LINE, opt).units
    return dataclasses.replace(
        unit, duration_ns=draw(durations), error=draw(st.floats(0.0, 0.8))
    )


def superop_of(family):
    """Row-major Liouville matrix sum_K K (x) conj(K) of a Kraus family."""
    return sum(np.kron(k, k.conj()) for k in family)


UNITARY_KINDS = sorted(sim._TERMS, key=lambda kind: kind.value)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(UNITARY_KINDS), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_depolarized_unitary_matches_kraus_family(kind, lam, seed):
    """The package's depolarizing term D = sim._TERMS[kind][0]: lam D +
    (1-lam) M is the depolarizing Kraus family after the unitary of M, for
    the identity and for a random unitary."""
    k = 2 if kind in cir.TWO_QUBIT_KINDS else 1
    dim = 2**k
    depolarized = helpers.standard_superop(sim._TERMS[kind][0])
    family = superop_of(oracles.depolarizing_family(lam, k))
    assert np.abs(lam * depolarized + (1 - lam) * np.eye(dim * dim) - family).max() < TOL
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    closed = lam * depolarized + (1 - lam) * np.kron(u, u.conj())
    assert np.abs(closed - family @ np.kron(u, u.conj())).max() < TOL


@settings(max_examples=60, deadline=None)
@given(qubit_times(), durations)
def test_relaxation_superop_matches_kraus_family(times, duration):
    closed = helpers.standard_superop(sim.relaxation_superop(duration, *times))
    family = superop_of(oracles.relaxation_family(duration, *times))
    assert np.abs(closed - family).max() < TOL


@settings(max_examples=100, deadline=None)
@given(qubit_times(), durations, durations)
def test_relaxations_compose_over_time(times, t, u):
    """Relaxation over t, then over u, is relaxation over t + u: ``evolve``
    relaxes a wire once per gap between the starts of its units."""
    joined = sim.relaxation_superop(u, *times) @ sim.relaxation_superop(t, *times)
    assert np.abs(joined - sim.relaxation_superop(t + u, *times)).max() < TOL


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
    assert_cptp(helpers.standard_superop(sim.unit_channel(unit, noise)))
    for w, t in zip(unit.wires, idle):
        assert_cptp(helpers.standard_superop(noise.relaxation(w, t)))


@settings(max_examples=60, deadline=None)
@given(units(), st.lists(durations, min_size=2, max_size=2), noise_models(3),
       st.integers(0, 2**32 - 1))
def test_unit_channel_matches_kraus_steps(unit, idle, noise, seed):
    # a random mixed state on three qubits, so wires outside the unit and
    # both wire orders of a two-qubit unit are seen
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    # idle relaxation is per-wire work before the unit's own channel
    fused = rho
    for w, t in zip(unit.wires, idle):
        idle_superop = helpers.standard_superop(noise.relaxation(w, t))
        fused = oracles.einsum_apply_superop(fused, idle_superop, (w,))
    channel = helpers.standard_superop(sim.unit_channel(unit, noise))
    fused = oracles.einsum_apply_superop(fused, channel, unit.wires)
    gates = helpers.unit_gates(unit, LINE)
    steps = oracles.unit_kraus_steps(unit, gates, idle, noise, 3, cir.local_matrix)
    assert np.abs(fused - oracles.apply_kraus_steps(rho, steps)).max() < TOL


def test_real_basis_dual_is_exact():
    for k, (dual, basis) in sim._REAL_BASIS.items():
        assert np.array_equal(dual @ basis, np.eye(4**k))


ROTATION_KINDS = sorted(cir.PARAM_KINDS, key=lambda kind: kind.value)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ROTATION_KINDS), angles)
def test_rotation_terms_match_the_generic_conversion(kind, theta):
    """A + cos t B + sin t C is the real matrix of local_matrix(kind, t),
    converted from U (x) conj(U) by the dual and the basis."""
    u = cir.local_matrix(kind, theta)
    dual, basis = sim._REAL_BASIS[len(u) // 2]
    generic = dual @ np.kron(u, u.conj()) @ basis
    a, b, c = sim._TERMS[kind][1:].reshape(3, *generic.shape)
    closed = a + math.cos(theta) * b + math.sin(theta) * c
    assert np.abs(generic.imag).max() <= 1e-15
    assert np.abs(closed - generic.real).max() <= 1e-15


def trace_row(k):
    """v = (1, 0, 0, 1) per wire: tr(rho) = v . x over the operator basis."""
    v = np.array([1.0, 0.0, 0.0, 1.0])
    return v if k == 1 else np.kron(v, v)


@settings(max_examples=200, deadline=None)
@given(units(), st.lists(durations, min_size=2, max_size=2), noise_models(3))
def test_unit_channel_preserves_the_trace(unit, idle, noise):
    k = len(unit.wires)
    channel = sim.unit_channel(unit, noise)
    assert np.abs(trace_row(k) @ channel - trace_row(k)).max() <= 1e-15
    for w, t in zip(unit.wires, idle):
        assert np.abs(trace_row(1) @ noise.relaxation(w, t) - trace_row(1)).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(units(), noise_models(3))
def test_standard_basis_round_trip_is_exact(unit, noise):
    channel = sim.unit_channel(unit, noise)
    dual, basis = sim._REAL_BASIS[len(unit.wires)]
    back = dual @ helpers.standard_superop(channel) @ basis
    assert np.abs(back - channel).max() <= 1e-15


@settings(max_examples=30, deadline=None)
@given(units(), noise_models(3), st.integers(1, 12))
def test_repeated_matches_explicit_composition(unit, noise, times):
    channel = helpers.standard_superop(sim.unit_channel(unit, noise))
    local = range(len(unit.wires))

    def compose(rho):
        for _ in range(times):
            rho = oracles.einsum_apply_superop(rho, channel, local)
        return rho

    explicit = oracles.probe_choi(compose, 2 ** len(unit.wires))
    repeated = np.linalg.matrix_power(channel, times)
    assert np.abs(sim.choi_of(repeated).data - explicit).max() < TOL
    assert_cptp(repeated)


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
    helpers.validate_density(sim.evolve(lowered, noise))
    assert any(u.kind is GateKind.MEASURE for u in lowered.units)


@st.composite
def lowered_circuits(draw):
    """A random circuit on a 2..6-wire line, lowered: one- and two-qubit
    gates, barriers over random wire sets, and a measurement per wire.  The
    last wire may be one that only ever sees one-qubit work."""
    n = draw(st.integers(2, 6))
    solo = n > 2 and draw(st.booleans())
    gates = []
    for _ in range(draw(st.integers(0, 14))):
        choice = draw(st.sampled_from(["one", "two", "barrier"]))
        if choice == "one":
            kind = draw(st.sampled_from(ONE_QUBIT_KINDS))
            wires = (draw(st.integers(0, n - 1)),)
        elif choice == "two":
            kind = draw(st.sampled_from(TWO_QUBIT_KINDS))
            a = draw(st.integers(0, n - 2 - solo))
            wires = draw(st.sampled_from([(a, a + 1), (a + 1, a)]))
        else:
            kind = GateKind.BARRIER
            wires = tuple(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        angle = draw(angles) if kind in cir.PARAM_KINDS else None
        gates.append(cir.Gate(kind, wires, param=angle))
    gates += [cir.measure(q, q) for q in range(n)]
    dev = line_device(
        [draw(qubit_times()) for _ in range(n)],
        sx_error=draw(st.floats(0.0, 0.05)),
        cx_error=draw(st.floats(0.0, 0.2)),
        readout=0.0,
    )
    opt = draw(st.sampled_from(list(lower.OptLevel)))
    circ = cir.CircuitIR(n, tuple(gates), num_clbits=n)
    return lower.lower_circuit(circ, tuple(range(n)), dev, opt), dev


@settings(max_examples=60, deadline=None)
@given(lowered_circuits(), st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
def test_fused_evolve_matches_one_apply_per_unit(case, scale):
    lowered, dev = case
    noise = sim.NoiseModel.from_device(dev, lowered.chain, scale=scale)
    fused = sim.evolve(lowered, noise).data
    reference = oracles.per_unit_evolve(
        lowered, noise, sim.unit_channel, helpers.standard_superop
    )
    assert np.abs(fused - reference).max() < 1e-14


def test_evolve_relaxes_a_wire_idle_before_its_last_barrier():
    """Wire 0 idles for two SX durations before a barrier that nothing
    follows: it relaxes for that time, as in one apply per unit."""
    gates = (cir.Gate(GateKind.X, (0,)),) + (cir.Gate(GateKind.SX, (1,)),) * 3
    circ = cir.CircuitIR(2, gates + (cir.barrier(0, 1),))
    dev = line_device([(0.05, 0.04)] * 2, 0.0, 0.0, 0.0)
    lowered = lower.lower_circuit(circ, (0, 1), dev)
    noise = sim.NoiseModel.from_device(dev, lowered.chain)
    reference = oracles.per_unit_evolve(
        lowered, noise, sim.unit_channel, helpers.standard_superop
    )
    assert np.abs(sim.evolve(lowered, noise).data - reference).max() < 1e-14


@settings(max_examples=60, deadline=None)
@given(lowered_circuits())
def test_evolve_applies_once_per_two_qubit_unit_and_per_solo_wire(case):
    # trailing one-qubit work joins the last two-qubit unit on its wire, so
    # only a wire that no two-qubit unit touches has an apply of its own
    lowered, dev = case
    noise = sim.NoiseModel.from_device(dev, lowered.chain)
    units = [u for u in lowered.units if u.kind is not GateKind.BARRIER]
    paired = {w for u in units if len(u.wires) == 2 for w in u.wires}
    solo = {u.wires[0] for u in units if len(u.wires) == 1} - paired
    two_qubit = sum(len(u.wires) == 2 for u in units)
    assert helpers.evolve_applies(lowered, noise) == two_qubit + len(solo)


#: ``process_fidelity`` reads F = tr(a b) when one argument's weight off its
#: top eigenvector is at most this fraction of its top eigenvalue.
PURE_WEIGHT = 1e-14


@st.composite
def choi_states(draw, dim):
    """(state, its eigenbasis U, its spectrum p, weight off its top eigenvector):
    pure, mixed, or pure but for a weight from 1e-16 to 1e-6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    kind = draw(st.sampled_from(["pure", "mixed", "nearly pure"]))
    if kind == "mixed":
        p = rng.uniform(0.1, 1.0, dim)
        p = np.sort(p / p.sum())[::-1]
    else:
        weight = 0.0 if kind == "pure" else 10.0 ** draw(st.floats(-16.0, -6.0))
        p = np.concatenate([[1.0 - weight], weight * rng.dirichlet(np.ones(dim - 1))])
    return (u * p) @ u.conj().T, u, p, p[1:].sum() / p[0]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([4, 16]).flatmap(lambda d: st.tuples(choi_states(d), choi_states(d))))
def test_process_fidelity_pure_shortcut(pair):
    """Where one argument is pure to within PURE_WEIGHT, F is tr(a b): it
    agrees with the reference for the purer argument's top eigenvector, and
    it is symmetric.  Above the bound neither argument counts as pure, and
    process fidelity is refused; within 10 % of it, either may happen."""
    (a, *_), (b, *_) = pair
    purest = min(pair, key=lambda state: state[3])
    _, u, p, weight = purest
    dim = math.isqrt(a.shape[0])
    choi_a, choi_b = sim.ChoiMatrix(dim, a), sim.ChoiMatrix(dim, b)
    if weight > 1.1 * PURE_WEIGHT:
        with pytest.raises(ValidationError, match="pure"):
            sim.process_fidelity(choi_a, choi_b)
        return
    try:
        fid = sim.process_fidelity(choi_a, choi_b)
    except ValidationError as err:
        assert weight >= 0.9 * PURE_WEIGHT and "pure" in str(err)
        return
    other = b if purest is pair[0] else a
    top = np.zeros_like(a)
    top[0, 0] = p[0]
    reference = helpers.uhlmann_fidelity(top, u.conj().T @ other @ u)
    assert abs(fid - reference) < PURE_WEIGHT + 1e-15  # the dropped weight, plus rounding
    assert abs(fid - sim.process_fidelity(choi_b, choi_a)) < PURE_WEIGHT
