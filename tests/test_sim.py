import math

import numpy as np
import pytest

import helpers
from bqaoa import circuit as cir
from bqaoa import lower, qaoa, sim
from bqaoa.circuit import CircuitIR, GateKind
from bqaoa.device import DeviceModel, EdgeCalibration, GateFlavor, QubitCalibration
from bqaoa.errors import (
    DimensionError,
    SingularConfusionError,
    ValidationError,
)
from bqaoa.lower import OptLevel, Polarity, apply_rule


def make_device(t1=150.0, t2=140.0, sx_error=0.0002, cx_error=0.0083,
                p01=0.01, p10=0.01):
    qubit = QubitCalibration(
        t1_us=t1,
        t2_us=t2,
        sx_error=sx_error,
        readout_error=(p01 + p10) / 2,
        prob_meas0_prep1=p01,
        prob_meas1_prep0=p10,
        readout_length_ns=846.22,
    )
    edges = (
        EdgeCalibration(0, 1, GateFlavor.ECR_CX, cx_error, 320.0),
        EdgeCalibration(1, 2, GateFlavor.DIRECT_CX, 0.006, 245.3),
        EdgeCalibration(2, 3, GateFlavor.ECR_CX, 0.009, 340.0),
    )
    return DeviceModel("simline", 4, (qubit,) * 4, edges)


DEV = make_device()
ECR = DEV.edge_between(0, 1)


def lowered_h_layer(n=3):
    circ = CircuitIR(n, tuple(cir.h(q) for q in range(n)))
    chain = tuple(range(n))
    return lower.lower_circuit(circ, chain, DEV)


# --- evolve ---


def test_evolve_noiseless_h_layer_uniform():
    lowered = lowered_h_layer()
    noise = sim.NoiseModel.from_device(DEV, lowered.chain, scale=0.0)
    rho = sim.evolve(lowered, noise)
    assert np.allclose(rho.data, np.full((8, 8), 1 / 8), atol=1e-12)
    rho.validate()


def test_evolve_matches_statevector_at_zero_scale():
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(4))
    circ = qaoa.build_swap_network(prob, qaoa.ParamVector((0.9,), (0.3,)))
    lowered = lower.lower_circuit(circ, (0, 1, 2, 3), DEV, OptLevel.ZZ_OPT)
    noise = sim.NoiseModel.from_device(DEV, lowered.chain, scale=0.0)
    rho = sim.evolve(lowered, noise)
    psi = cir.statevector(helpers.without_measurements(helpers.flatten(lowered)))
    assert np.allclose(rho.data, np.outer(psi, psi.conj()), atol=1e-9)


def test_full_depolarizing_gives_mixed_marginals():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    out = sim.Channel(2, sim.depolarized_unitary(np.eye(4), 1.0)).apply(rho)
    assert np.allclose(out, np.eye(4) / 4, atol=1e-12)


def test_amplitude_damping_population():
    t1, t2, duration = 120.0, 100.0, 60000.0
    relax = sim.Channel(1, sim.relaxation_superop(duration, t1, t2))
    out = relax.apply(np.array([[0, 0], [0, 1]], dtype=complex))
    assert out[1, 1].real == pytest.approx(math.exp(-duration * 1e-3 / t1))


def test_relaxation_dephasing_rate():
    t1, t2, duration = 200.0, 150.0, 40000.0
    relax = sim.Channel(1, sim.relaxation_superop(duration, t1, t2))
    out = relax.apply(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    # coherence starts at 1/2 and decays with the full T2 rate
    assert 2 * abs(out[0, 1]) == pytest.approx(math.exp(-duration * 1e-3 / t2))


def test_relaxation_caps_t2_at_twice_t1():
    # no qubit dephases slower than 2 T1; a larger T2 counts as 2 T1
    capped = sim.relaxation_superop(700.0, 50.0, 100.0)
    assert np.abs(sim.relaxation_superop(700.0, 50.0, 400.0) - capped).max() < 1e-15


@pytest.mark.parametrize("seed", range(4))
def test_evolve_preserves_trace_and_hermiticity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    prob_n = max(n, 2)
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(prob_n))
    circ = qaoa.build_swap_network(
        prob,
        qaoa.ParamVector(
            tuple(rng.uniform(0, math.pi, 2)), tuple(rng.uniform(0, math.pi, 2))
        ),
    )
    lowered = lower.lower_circuit(circ, tuple(range(prob_n)), DEV)
    noise = sim.NoiseModel.from_device(
        DEV, lowered.chain, scale=float(rng.uniform(0.3, 2.0))
    )
    rho = sim.evolve(lowered, noise)
    assert abs(np.trace(rho.data).real - 1.0) < 1e-10
    assert np.allclose(rho.data, rho.data.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(rho.data).min() > -1e-9


def test_t2_clamp_warns():
    bad = make_device(t1=100.0, t2=250.0)
    with pytest.warns(UserWarning, match="clamping"):
        noise = sim.NoiseModel.from_device(bad, (0, 1), scale=1.0)
    assert noise.qubits[0].t2_us == pytest.approx(200.0)


# --- sampling and mitigation ---


def test_sample_pure_state_identity_confusion():
    psi = np.zeros(4, dtype=complex)
    psi[0b01] = 1.0
    rho = helpers.density_from_statevector(psi)
    counts = sim.sample(rho, 1000, [np.eye(2), np.eye(2)], seed=3)
    assert counts.tolist() == [0, 1000, 0, 0]


def test_sample_confusion_binomial():
    psi = np.array([1.0, 0.0], dtype=complex)
    rho = helpers.density_from_statevector(psi)
    confusion = [np.array([[0.9, 0.0], [0.1, 1.0]])]
    shots = 10**6
    counts = sim.sample(rho, shots, confusion, seed=11)
    fraction = counts[1] / shots
    sigma = math.sqrt(0.1 * 0.9 / shots)
    assert abs(fraction - 0.1) < 3 * sigma


def test_sample_deterministic_for_seed():
    rho = sim.DensityMatrix.ground(3)
    lowered = lowered_h_layer()
    noise = sim.NoiseModel.from_device(DEV, lowered.chain, scale=1.0)
    rho = sim.evolve(lowered, noise)
    confusions = noise.confusion_matrices()
    assert np.array_equal(
        sim.sample(rho, 5000, confusions, seed=9),
        sim.sample(rho, 5000, confusions, seed=9),
    )


def test_mitigate_identity_confusion_unchanged():
    counts = np.array([600, 0, 0, 400])
    quasi, clipped = sim.mitigate_readout(counts, [np.eye(2), np.eye(2)])
    assert clipped == pytest.approx([0.6, 0.0, 0.0, 0.4])


def test_mitigate_round_trip():
    rng = np.random.default_rng(4)
    true = rng.dirichlet(np.ones(8))
    confusions = [
        np.array([[0.97, 0.02], [0.03, 0.98]]),
        np.array([[0.95, 0.04], [0.05, 0.96]]),
        np.array([[0.99, 0.01], [0.01, 0.99]]),
    ]
    observed = sim.apply_confusion(true, confusions)
    quasi, clipped = sim.mitigate_readout(observed, confusions)
    recovered = np.array([quasi.get(i, 0.0) for i in range(8)])
    assert np.allclose(recovered, true, atol=1e-12)


def test_mitigate_clips_negative_mass_and_renormalizes():
    confusions = [np.array([[0.97, 0.02], [0.03, 0.98]])] * 2
    quasi, clipped = sim.mitigate_readout(np.array([700, 0, 20, 280]), confusions)
    raw = np.array([quasi.get(i, 0.0) for i in range(4)])
    assert raw.min() < 0
    assert clipped == pytest.approx(np.clip(raw, 0, None) / np.clip(raw, 0, None).sum())
    assert clipped.sum() == pytest.approx(1.0)


def test_mitigate_singular_confusion_raises():
    singular = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(SingularConfusionError):
        sim.mitigate_readout(np.array([1, 1]), [singular])


def test_noise_scale_interpolates_confusion():
    noise0 = sim.NoiseModel.from_device(DEV, (0,), scale=0.0)
    assert np.allclose(noise0.scaled_confusion(0), np.eye(2))
    noise2 = sim.NoiseModel.from_device(DEV, (0,), scale=2.0)
    m = noise2.scaled_confusion(0)
    assert np.all(m >= 0) and np.allclose(m.sum(axis=0), 1.0)
    assert m[1, 0] == pytest.approx(0.02)


def test_remap_counts_permutation():
    counts = np.array([0, 7, 3, 0])  # "01": 7, "10": 3
    remapped = sim.remap_counts(counts, {0: 1, 1: 0})
    assert remapped.tolist() == [0, 3, 7, 0]  # "10": 7, "01": 3


def test_sp_converges_to_diagonal():
    lowered = lowered_h_layer(2)
    noise = sim.NoiseModel.from_device(DEV, lowered.chain, scale=1.0)
    rho = sim.evolve(lowered, noise)
    shots = 10**6
    counts = sim.sample(rho, shots, None, seed=21)
    probs = rho.probabilities()
    for i, p in enumerate(probs):
        observed = counts[i] / shots
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(observed - p) < 4 * sigma + 1e-6


# --- Choi matrices and process fidelity ---


def test_choi_identity_is_maximally_entangled():
    channel = sim.unitary_channel(np.eye(4, dtype=complex))
    choi = sim.choi_of(channel)
    phi = np.zeros(16, dtype=complex)
    for i in range(4):
        phi[i * 4 + i] = 0.5
    assert np.allclose(choi.data, np.outer(phi, phi.conj()), atol=1e-12)
    assert np.trace(choi.data).real == pytest.approx(1.0)


def test_choi_fully_depolarizing():
    channel = sim.Channel(1, sim.depolarized_unitary(np.eye(2), 1.0))
    choi = sim.choi_of(channel)
    assert np.allclose(choi.data, np.eye(4) / 4, atol=1e-12)


def test_choi_noisy_zz_is_cptp():
    app = apply_rule(GateKind.ZZ, 0.8, 0, 1, ECR, DEV, OptLevel.DEFAULT)
    channel = sim.composite_channel(app, ECR, DEV, scale=1.0)
    choi = sim.choi_of(channel)
    eigenvalues = np.linalg.eigvalsh(choi.data)
    assert eigenvalues.min() > -1e-9
    assert np.trace(choi.data).real == pytest.approx(1.0, abs=1e-9)
    d = choi.dim
    partial = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            partial[i, j] = sum(choi.data[i * d + o, j * d + o] for o in range(d))
    assert np.allclose(partial, np.eye(d) / d, atol=1e-9)


def test_composite_channel_refuses_cx():
    # a reversed CX has its control on wire 1, which frame (0, 1) cannot say
    for polarity in Polarity:
        app = apply_rule(GateKind.CX, None, 0, 1, ECR, DEV, OptLevel.DEFAULT, polarity)
        with pytest.raises(ValidationError, match="cx"):
            sim.composite_channel(app, ECR, DEV)


def test_process_fidelity_self_is_one():
    app = apply_rule(GateKind.ZZ, 0.8, 0, 1, ECR, DEV, OptLevel.DEFAULT)
    choi = sim.choi_of(sim.composite_channel(app, ECR, DEV, scale=1.0))
    assert sim.process_fidelity(choi, choi) == pytest.approx(1.0, abs=1e-9)


def test_process_fidelity_depolarizing_analytic():
    lam = 0.37
    ideal = sim.choi_of(sim.unitary_channel(np.eye(4, dtype=complex)))
    noisy = sim.choi_of(sim.Channel(2, sim.depolarized_unitary(np.eye(4), lam)))
    expected = 1.0 - 15.0 * lam / 16.0
    assert sim.process_fidelity(ideal, noisy) == pytest.approx(expected, abs=1e-9)
    assert sim.process_fidelity(noisy, ideal) == pytest.approx(expected, abs=1e-9)


def test_process_fidelity_ideal_vs_noiseless_lowered():
    for target in (GateKind.ZZ, GateKind.CZ, GateKind.ZZ_SWAP):
        theta = 1.3
        app = apply_rule(target, theta, 0, 1, ECR, DEV, OptLevel.DEFAULT)
        noiseless = sim.composite_channel(app, ECR, DEV, scale=0.0)
        param = theta if target is not GateKind.CZ else None
        ideal = sim.unitary_channel(cir.local_matrix(target, param))
        fid = sim.process_fidelity(sim.choi_of(ideal), sim.choi_of(noiseless))
        assert fid == pytest.approx(1.0, abs=1e-9)


def test_process_fidelity_dimension_mismatch():
    a = sim.choi_of(sim.unitary_channel(np.eye(2, dtype=complex)))
    b = sim.choi_of(sim.unitary_channel(np.eye(4, dtype=complex)))
    with pytest.raises(DimensionError):
        sim.process_fidelity(a, b)


def test_infidelity_nondecreasing_in_repetitions():
    app = apply_rule(GateKind.ZZ, 0.9, 0, 1, ECR, DEV, OptLevel.DEFAULT)
    noisy = sim.composite_channel(app, ECR, DEV, scale=1.0)
    ideal = sim.unitary_channel(cir.local_matrix(GateKind.ZZ, 0.9))
    infidelities = []
    for reps in (1, 5, 10):
        fid = sim.process_fidelity(
            sim.choi_of(ideal.repeated(reps)), sim.choi_of(noisy.repeated(reps))
        )
        infidelities.append(1.0 - fid)
    assert infidelities[0] <= infidelities[1] <= infidelities[2]


def test_qpt_table_orderings():
    rows = sim.qpt_infidelities(
        DEV, ECR, GateKind.ZZ, OptLevel.ZZ_OPT, repetitions=(1, 10),
        angles=(0.5, 1.5, 3.0), noise_scale=1.0,
    )
    by_key = {
        (r["variant"], r["angle"], r["repetitions"]): r["infidelity"] for r in rows
    }
    for angle in (0.5, 1.5, 3.0):
        # more repetitions, more infidelity
        assert by_key[("default-ct", angle, 10)] >= by_key[("default-ct", angle, 1)]
        # pulse-optimized beats the default at the same polarity
        assert by_key[("opt-ct", angle, 1)] <= by_key[("default-ct", angle, 1)] + 1e-12
        # native polarity beats the reversed one
        assert by_key[("default-ct", angle, 1)] <= by_key[("default-tc", angle, 1)]


def test_qpt_noiseless_is_exact():
    rows = sim.qpt_infidelities(
        DEV, ECR, GateKind.ZZ_SWAP, OptLevel.ZZ_SWAP_OPT, repetitions=(1,),
        angles=(0.7,), noise_scale=0.0,
    )
    assert all(r["infidelity"] < 1e-9 for r in rows)


def test_sample_requires_positive_shots():
    with pytest.raises(ValidationError):
        sim.sample(sim.DensityMatrix.ground(1), 0, None, seed=1)


def test_idle_qubit_relaxes_during_gaps():
    # qubit 0 is excited, then waits 288 ns while qubit 1 runs ten gates
    # before a CX forces synchronization; that idle window must relax too
    short_t1 = make_device(t1=0.1, t2=0.15, cx_error=0.0)  # 100 ns T1
    gates = [cir.x(0)] + [cir.x(1)] * 10 + [cir.cx(0, 1)]
    circ = CircuitIR(2, tuple(gates))
    lowered = lower.lower_circuit(circ, (0, 1), short_t1)
    noise = sim.NoiseModel.from_device(short_t1, lowered.chain, scale=1.0)
    rho = sim.evolve(lowered, noise)
    # busy X (32) + idle until the CX (288) + CX window (320)
    t1_us = noise.qubits[0].t1_us
    with_idle = math.exp(-(32 + 288 + 320) * 1e-3 / t1_us)
    without_idle = math.exp(-(32 + 320) * 1e-3 / t1_us)
    marginal = rho.data.reshape(2, 2, 2, 2)
    pop = float(sum(marginal[i, 1, i, 1].real for i in range(2)))
    assert pop == pytest.approx(with_idle, abs=0.005)
    assert abs(pop - without_idle) > 0.02  # distinguishes the two models


def test_no_idle_relaxation_when_packed():
    # back-to-back gates on one qubit leave no idle window: populations
    # after two X gates match pure busy-time relaxation
    dev = make_device(t1=0.1, t2=0.15)
    circ = CircuitIR(1, (cir.x(0), cir.x(0)))
    lowered = lower.lower_circuit(circ, (0,), dev)
    noise = sim.NoiseModel.from_device(dev, lowered.chain, scale=1.0)
    rho = sim.evolve(lowered, noise)
    assert abs(np.trace(rho.data).real - 1.0) < 1e-10
