"""The fused superoperator engine against the dense Kraus-path reference."""

import types

import numpy as np
import pytest

import helpers
import oracles
from bqaoa import circuit as cir
from bqaoa import data_path, device, lower, mapper, qaoa, sim
from bqaoa.circuit import CircuitIR, GateKind, local_matrix
from bqaoa.lower import OptLevel, Polarity, apply_rule, effective_error

TOL = 1e-12
SCALES = (0.0, 0.5, 1.0, 2.0)
FRAGMENT = device.load_device(data_path("ehningen_fragment.json"))
SYNTH5 = device.load_device(data_path("synthetic5.json"))
CHAINS = [
    ("fragment", (0, 1)),
    ("fragment", (4, 1)),
    ("fragment", (0, 1, 4)),
] + [("synthetic5", mapper.enumerate_chains(SYNTH5, n)[0]) for n in range(2, 6)]
EHNINGEN = device.load_device(data_path("ehningen.json"))
DEVICES = {"fragment": FRAGMENT, "synthetic5": SYNTH5, "ehningen": EHNINGEN}


def swap_network(n):
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(n))
    return qaoa.build_swap_network(prob, qaoa.ParamVector((0.41, 1.2), (0.26, 0.9)))


@pytest.mark.parametrize("opt", list(OptLevel), ids=lambda o: o.value)
@pytest.mark.parametrize("name,chain", CHAINS, ids=lambda v: str(v))
def test_evolve_matches_kraus_reference(name, chain, opt):
    dev = DEVICES[name]
    lowered = lower.lower_circuit(swap_network(len(chain)), chain, dev, opt)
    for scale in SCALES:
        noise = sim.NoiseModel.from_device(dev, lowered.chain, scale=scale)
        fused = sim.evolve(lowered, noise).data
        reference = oracles.kraus_evolve(lowered, noise, local_matrix)
        assert np.abs(fused - reference).max() < TOL, scale


def test_evolve_barrier_and_idle_match_kraus_reference():
    gates = (
        cir.x(0), cir.sx(1), cir.sx(1), cir.barrier(0, 1, 2), cir.cx(1, 2),
        cir.rz(0.3, 0), cir.barrier(0, 2), cir.cx(0, 1),
        cir.measure(0, 0), cir.measure(1, 1), cir.measure(2, 2),
    )
    circ = CircuitIR(3, gates, num_clbits=3)
    lowered = lower.lower_circuit(circ, (0, 1, 4), FRAGMENT)
    assert any(u.kind is GateKind.BARRIER for u in lowered.units)
    for scale in SCALES:
        noise = sim.NoiseModel.from_device(FRAGMENT, lowered.chain, scale=scale)
        fused = sim.evolve(lowered, noise).data
        reference = oracles.kraus_evolve(lowered, noise, local_matrix)
        assert np.abs(fused - reference).max() < TOL, scale


def assert_units_equal_local_matrix(lowered):
    """Every gate-carrying unit's gates multiply to local_matrix(kind, angle),
    up to phase: the invariant ``unit_channel`` builds on."""
    for unit in lowered.units:
        if unit.gates and unit.kind is not GateKind.BARRIER:
            u = helpers.gate_product(unit.gates, unit.wires)
            expected = local_matrix(unit.kind, unit.angle)
            assert helpers.equal_up_to_phase(u, expected, TOL), (unit.label, unit.wires)


@pytest.mark.parametrize("opt", list(OptLevel), ids=lambda o: o.value)
@pytest.mark.parametrize("name", ["ehningen", "synthetic5"])
def test_lowered_units_equal_local_matrix_up_to_phase(name, opt):
    dev = DEVICES[name]
    for n in range(2, 6):
        circ = swap_network(n)
        for chain in mapper.enumerate_chains(dev, n):
            assert_units_equal_local_matrix(lower.lower_circuit(circ, chain, dev, opt))


def test_barrier_and_cx_units_equal_local_matrix_up_to_phase():
    # the circuit of test_evolve_barrier_and_idle_match_kraus_reference; its
    # two CX units run in the native and in the reversed direction
    gates = (
        cir.x(0), cir.sx(1), cir.sx(1), cir.barrier(0, 1, 2), cir.cx(1, 2),
        cir.rz(0.3, 0), cir.barrier(0, 2), cir.cx(0, 1),
        cir.measure(0, 0), cir.measure(1, 1), cir.measure(2, 2),
    )
    lowered = lower.lower_circuit(CircuitIR(3, gates, num_clbits=3), (0, 1, 4), FRAGMENT)
    assert {u.polarity for u in lowered.units if u.kind is GateKind.CX} == set(Polarity)
    assert_units_equal_local_matrix(lowered)


def probe_steps(steps, dim):
    return oracles.probe_choi(lambda rho: oracles.apply_kraus_steps(rho, steps), dim)


def composite_reference(app, edge, dev, scale):
    """Kraus steps of ``composite_channel`` on the frame (0, 1)."""
    noise = sim.NoiseModel.from_device(dev, (edge.control, edge.target), scale=scale)
    unit = types.SimpleNamespace(
        wires=(0, 1),
        gates=app.gates,
        error=effective_error(app, edge, dev),
        duration_ns=app.duration_ns,
    )
    return oracles.unit_kraus_steps(unit, (0.0, 0.0), noise, 2, local_matrix)


@pytest.mark.parametrize("edge", FRAGMENT.edges, ids=lambda e: f"{e.control}-{e.target}")
@pytest.mark.parametrize("target", [GateKind.ZZ, GateKind.CZ, GateKind.ZZ_SWAP])
def test_choi_matches_probing(edge, target):
    theta = None if target is GateKind.CZ else 1.1
    for scale in SCALES:
        for polarity in Polarity:
            app = apply_rule(
                target, theta, 0, 1, edge, FRAGMENT, OptLevel.DEFAULT, polarity
            )
            channel = sim.composite_channel(app, edge, FRAGMENT, scale=scale)
            steps = composite_reference(app, edge, FRAGMENT, scale)
            for reps in (1, 3):
                choi = sim.choi_of(channel.repeated(reps)).data
                probed = probe_steps(steps * reps, 4)
                assert np.abs(choi - probed).max() < TOL


def test_choi_of_single_qubit_channels_matches_probing():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(a)
    relax = sim.relaxation_superop(500.0, 80.0, 60.0)
    channel = sim.Channel(1, sim.depolarized_unitary(u, 0.0)).compose(relax, (0,))
    probed = probe_steps([[u], oracles.relaxation_family(500.0, 80.0, 60.0)], 2)
    assert np.abs(sim.choi_of(channel).data - probed).max() < TOL


@pytest.mark.parametrize("edge", FRAGMENT.edges, ids=lambda e: f"{e.control}-{e.target}")
def test_qpt_rows_match_kraus_reference(edge):
    repetitions, angles = (1, 4), (0.4, 2.2)
    for target, opt in ((GateKind.ZZ, OptLevel.ZZ_OPT),
                        (GateKind.ZZ_SWAP, OptLevel.ZZ_SWAP_OPT)):
        rows = sim.qpt_infidelities(FRAGMENT, edge, target, opt, repetitions, angles)
        assert len({r["variant"] for r in rows}) * 4 == len(rows)
        for row in rows:
            level = OptLevel.DEFAULT if row["variant"].startswith("default") else opt
            polarity = Polarity.CT if row["variant"].endswith("ct") else Polarity.TC
            app = apply_rule(target, row["angle"], 0, 1, edge, FRAGMENT, level, polarity)
            steps = composite_reference(app, edge, FRAGMENT, 1.0)
            ideal = [[local_matrix(target, row["angle"])]]
            reps = row["repetitions"]
            fid = sim.process_fidelity(
                sim.ChoiMatrix(4, probe_steps(ideal * reps, 4)),
                sim.ChoiMatrix(4, probe_steps(steps * reps, 4)),
            )
            assert abs(row["infidelity"] - (1.0 - fid)) < TOL
