import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import helpers
import oracles
from bqaoa import circuit as cir
from bqaoa import data_path, lower, optimize, qaoa, sim
from bqaoa.circuit import CircuitIR, GateKind
from bqaoa.device import DeviceModel, EdgeCalibration, GateFlavor, QubitCalibration
from bqaoa.errors import InfeasibleError, TooLargeError, ValidationError
from bqaoa.lower import OptLevel, Polarity
from bqaoa.mapper import Strategy


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
    helpers.validate_density(rho)


def test_evolve_matches_statevector_at_zero_scale():
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(4))
    circ = qaoa.build_swap_network(prob, qaoa.ParamVector((0.9,), (0.3,)))
    lowered = lower.lower_circuit(circ, (0, 1, 2, 3), DEV, OptLevel.ZZ_OPT)
    noise = sim.NoiseModel.from_device(DEV, lowered.chain, scale=0.0)
    rho = sim.evolve(lowered, noise)
    psi = cir.statevector(helpers.without_measurements(helpers.flatten(lowered, DEV)))
    assert np.allclose(rho.data, np.outer(psi, psi.conj()), atol=1e-9)


def test_validate_rejects_asymmetry_above_its_tolerance():
    # |+><+| with one coherence off by 1e-7: within numpy's default relative
    # tolerance of the entry 0.5, far outside an absolute 1e-10
    rho = sim.DensityMatrix(1, np.full((2, 2), 0.5, dtype=complex))
    rho.data[0, 1] += 1e-7
    helpers.validate_density(rho, tol=1e-6)
    with pytest.raises(ValidationError, match="not Hermitian"):
        helpers.validate_density(rho, tol=1e-10)


def test_evolve_refuses_more_wires_than_the_dense_limit():
    n = cir.MAX_DENSE_QUBITS + 1
    edges = tuple(
        EdgeCalibration(q, q + 1, GateFlavor.DIRECT_CX, 0.006, 245.3) for q in range(n - 1)
    )
    line = DeviceModel("line", n, (DEV.qubits[0],) * n, edges)
    lowered = lower.lower_circuit(CircuitIR(n, (cir.h(0),)), tuple(range(n)), line)
    noise = sim.NoiseModel.from_device(line, lowered.chain)
    with pytest.raises(TooLargeError):
        sim.evolve(lowered, noise)


def test_full_depolarizing_gives_mixed_marginals():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    channel = helpers.depolarized_unitary(np.eye(4), 1.0)
    out = oracles.einsum_apply_superop(rho, channel, (0, 1))
    assert np.allclose(out, np.eye(4) / 4, atol=1e-12)


def test_amplitude_damping_population():
    t1, t2, duration = 120.0, 100.0, 60000.0
    excited = np.array([[0, 0], [0, 1]], dtype=complex)
    channel = helpers.standard_superop(sim.relaxation_superop(duration, t1, t2))
    out = oracles.einsum_apply_superop(excited, channel, (0,))
    assert out[1, 1].real == pytest.approx(math.exp(-duration * 1e-3 / t1))


def test_relaxation_dephasing_rate():
    t1, t2, duration = 200.0, 150.0, 40000.0
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    channel = helpers.standard_superop(sim.relaxation_superop(duration, t1, t2))
    out = oracles.einsum_apply_superop(plus, channel, (0,))
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
    # the device's own record, its T2 counted as 2 T1 by the relaxation alone
    assert noise.qubits[0] is bad.qubits[0]
    t = 700.0
    assert np.array_equal(noise.relaxation(0, t), sim.relaxation_superop(t, 100.0, 200.0))


@pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
def test_noise_model_rejects_a_bad_scale(scale):
    qubits = sim.NoiseModel.from_device(DEV, (0, 1)).qubits
    with pytest.raises(ValidationError, match="noise scale"):
        sim.NoiseModel(qubits=qubits, scale=scale)
    with pytest.raises(ValidationError, match="noise scale"):
        sim.NoiseModel.from_device(DEV, (0, 1), scale=scale)


def lowered_on_global_chain(dev, prob, params):
    """``prob``'s QAOA circuit at ``zzswapopt`` on its global chain of ``dev``."""
    chain = optimize.select_chain_for(dev, prob, Strategy.GLOBAL).chain
    circ = qaoa.build_swap_network(prob, params)
    return lower.lower_circuit(circ, chain, dev, OptLevel.ZZ_SWAP_OPT)


def test_evolve_applies_one_superoperator_per_two_qubit_unit(ehningen):
    # the mixer RX and the measurement after each wire's last swap join that
    # swap's superoperator: 28 applies, not 28 + one flush per wire
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(8))
    lowered = lowered_on_global_chain(ehningen, prob, qaoa.ParamVector((0.4,), (0.3,)))
    assert sum(len(u.wires) == 2 for u in lowered.units) == 28
    noise = sim.NoiseModel.from_device(ehningen, lowered.chain)
    assert helpers.evolve_applies(lowered, noise) == 28


@pytest.mark.parametrize("n", [5, 8])
def test_evolve_diagonal_is_exactly_real(ehningen, n):
    # the populations are real coordinates, which the conversion at the end
    # never touches
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(n))
    lowered = lowered_on_global_chain(ehningen, prob, qaoa.ParamVector((0.4,), (0.3,)))
    noise = sim.NoiseModel.from_device(ehningen, lowered.chain)
    assert not np.diag(sim.evolve(lowered, noise).data).imag.any()


@pytest.mark.parametrize("problem, p, bound_kb", [
    (qaoa.load_problem(data_path("portopt5.json")).ising, 2, 192),
    (qaoa.encode_maxcut(helpers.complete_maxcut(8)), 1, 2560),
])
def test_evolve_peak_memory(ehningen, problem, p, bound_kb):
    # the working vector is 4^n real coordinates (8 KB at n=5, 512 KB at
    # n=8), and the complex rho (16 KB, 1 MB) is made once at the end; a
    # channel build that holds every unit's superoperator at once shows here
    params = qaoa.ParamVector((0.4,) * p, (0.3,) * p)
    lowered = lowered_on_global_chain(ehningen, problem, params)
    noise = sim.NoiseModel.from_device(ehningen, lowered.chain)
    sim.evolve(lowered, noise)  # one-time allocations do not count
    tracemalloc.start()
    try:
        sim.evolve(lowered, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_kb * 1024


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
    with pytest.raises(InfeasibleError, match="wire 0 is singular"):
        sim.mitigate_readout(np.array([1, 1]), [singular])


def test_noise_scale_interpolates_confusion():
    noise0 = sim.NoiseModel.from_device(DEV, (0,), scale=0.0)
    assert np.allclose(noise0.scaled_confusion(0), np.eye(2))
    noise2 = sim.NoiseModel.from_device(DEV, (0,), scale=2.0)
    m = noise2.scaled_confusion(0)
    assert np.all(m >= 0) and np.allclose(m.sum(axis=0), 1.0)
    assert m[1, 0] == pytest.approx(0.02)
    # confusion[measured][true]: a 1 reads as 0 with prob_meas0_prep1
    skewed = sim.NoiseModel.from_device(make_device(p01=0.03, p10=0.01), (0,))
    expected = [[0.99, 0.03], [0.01, 0.97]]
    assert np.allclose(skewed.scaled_confusion(0), expected, rtol=0.0, atol=1e-15)


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
    channel = helpers.depolarized_unitary(np.eye(4, dtype=complex), 0.0)
    choi = sim.choi_of(channel)
    phi = np.zeros(16, dtype=complex)
    for i in range(4):
        phi[i * 4 + i] = 0.5
    assert np.allclose(choi.data, np.outer(phi, phi.conj()), atol=1e-12)
    assert np.trace(choi.data).real == pytest.approx(1.0)


def test_choi_fully_depolarizing():
    channel = helpers.depolarized_unitary(np.eye(2), 1.0)
    choi = sim.choi_of(channel)
    assert np.allclose(choi.data, np.eye(4) / 4, atol=1e-12)


def test_choi_noisy_zz_is_cptp():
    unit = helpers.two_qubit_unit(GateKind.ZZ, 0.8, ECR, DEV, OptLevel.DEFAULT)
    channel = sim.composite_channel(unit, DEV, scale=1.0)
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
        unit = helpers.two_qubit_unit(
            GateKind.CX, None, ECR, DEV, OptLevel.DEFAULT, polarity
        )
        with pytest.raises(ValidationError, match="cx"):
            sim.composite_channel(unit, DEV)


def test_process_fidelity_self_is_one():
    target = helpers.depolarized_unitary(cir.local_matrix(GateKind.ZZ, 0.8), 0.0)
    choi = sim.choi_of(target)
    assert sim.process_fidelity(choi, choi) == pytest.approx(1.0, abs=1e-9)


def test_process_fidelity_refuses_two_mixed_choi_states():
    # neither argument is a unitary target: a noisy composite against itself,
    # and two depolarized identities
    unit = helpers.two_qubit_unit(GateKind.ZZ, 0.8, ECR, DEV, OptLevel.DEFAULT)
    noisy = sim.choi_of(sim.composite_channel(unit, DEV, scale=1.0))
    weak, strong = (sim.choi_of(helpers.depolarized_unitary(np.eye(4), lam))
                    for lam in (0.1, 0.37))
    for a, b in ((noisy, noisy), (weak, strong), (strong, weak)):
        with pytest.raises(ValidationError, match="pure"):
            sim.process_fidelity(a, b)


def test_process_fidelity_depolarizing_analytic():
    lam = 0.37
    ideal = sim.choi_of(helpers.depolarized_unitary(np.eye(4, dtype=complex), 0.0))
    noisy = sim.choi_of(helpers.depolarized_unitary(np.eye(4), lam))
    expected = 1.0 - 15.0 * lam / 16.0
    assert sim.process_fidelity(ideal, noisy) == pytest.approx(expected, abs=1e-9)
    assert sim.process_fidelity(noisy, ideal) == pytest.approx(expected, abs=1e-9)


def test_process_fidelity_ideal_vs_noiseless_lowered():
    for target in (GateKind.ZZ, GateKind.CZ, GateKind.ZZ_SWAP):
        theta = 1.3
        unit = helpers.two_qubit_unit(target, theta, ECR, DEV, OptLevel.DEFAULT)
        noiseless = sim.composite_channel(unit, DEV, scale=0.0)
        param = theta if target is not GateKind.CZ else None
        ideal = helpers.depolarized_unitary(cir.local_matrix(target, param), 0.0)
        fid = sim.process_fidelity(sim.choi_of(ideal), sim.choi_of(noiseless))
        assert fid == pytest.approx(1.0, abs=1e-9)


def test_process_fidelity_dimension_mismatch():
    a = sim.choi_of(helpers.depolarized_unitary(np.eye(2, dtype=complex), 0.0))
    b = sim.choi_of(helpers.depolarized_unitary(np.eye(4, dtype=complex), 0.0))
    with pytest.raises(ValidationError, match="Choi dimensions differ"):
        sim.process_fidelity(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_process_fidelity_rejects_a_non_finite_choi_matrix(bad):
    pure = sim.choi_of(helpers.depolarized_unitary(np.eye(4, dtype=complex), 0.0))
    broken = sim.ChoiMatrix(pure.dim, pure.data.copy())
    broken.data[3, 5] = bad
    with pytest.raises(ValidationError, match="Choi matrix a "):
        sim.process_fidelity(broken, pure)
    with pytest.raises(ValidationError, match="Choi matrix b "):
        sim.process_fidelity(pure, broken)


def test_qpt_rows_take_the_pure_shortcut(fragment, monkeypatch):
    """Each README qpt row probes two Choi matrices and reads one fidelity
    against the repeated target unitary, whose Choi state is pure."""
    spies = {name: mock.Mock(side_effect=getattr(sim, name))
             for name in ("choi_of", "process_fidelity")}
    for name, spy in spies.items():
        monkeypatch.setattr(sim, name, spy)
    angles = [np.pi * (i + 1) / 9 for i in range(9)]
    rows = sim.qpt_infidelities(
        fragment, fragment.edge_between(1, 0), GateKind.ZZ, OptLevel.ZZ_OPT,
        (1, 5, 10), angles,
    )
    assert len(rows) == 108
    calls = {name: spy.call_count for name, spy in spies.items()}
    assert calls == {"choi_of": 216, "process_fidelity": 108}


def test_infidelity_nondecreasing_in_repetitions():
    unit = helpers.two_qubit_unit(GateKind.ZZ, 0.9, ECR, DEV, OptLevel.DEFAULT)
    noisy = sim.composite_channel(unit, DEV, scale=1.0)
    ideal = helpers.depolarized_unitary(cir.local_matrix(GateKind.ZZ, 0.9), 0.0)
    infidelities = []
    for reps in (1, 5, 10):
        fid = sim.process_fidelity(
            sim.choi_of(np.linalg.matrix_power(ideal, reps)),
            sim.choi_of(np.linalg.matrix_power(noisy, reps)),
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
        sim.sample(helpers.density_from_statevector([1, 0]), 0, None, seed=1)


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
