import json
import math

import numpy as np
import pytest

import helpers
import oracles
from bqaoa import circuit as cir
from bqaoa import data_path, device, lower, mapper, optimize, qaoa
from bqaoa.circuit import CircuitIR, GateKind
from bqaoa.device import DeviceModel, EdgeCalibration, GateFlavor, QubitCalibration
from bqaoa.errors import InfeasibleError, ValidationError
from bqaoa.lower import OptLevel, Polarity, apply_rule

TWO_QUBIT_TARGETS = (GateKind.ZZ, GateKind.CZ, GateKind.ZZ_SWAP)


def make_device(ecr_error=0.0083, direct_error=0.0079, sx_error=0.0002):
    qubit = QubitCalibration(
        t1_us=150.0,
        t2_us=140.0,
        sx_error=sx_error,
        readout_error=0.01,
        prob_meas0_prep1=0.01,
        prob_meas1_prep0=0.01,
        readout_length_ns=846.22,
    )
    edges = (
        EdgeCalibration(1, 0, GateFlavor.ECR_CX, ecr_error, 320.0),
        EdgeCalibration(
            1, 2, GateFlavor.DIRECT_CX, direct_error, 245.3,
            composite_durations_ns=(("zz", 490.0), ("zz_swap", 800.0)),
        ),
    )
    return DeviceModel("pair", 3, (qubit,) * 3, edges)


DEV = make_device()
ECR = DEV.edge_between(0, 1)
DIRECT = DEV.edge_between(1, 2)


def target_unitary(kind, theta):
    return cir.local_matrix(kind, theta if kind is not GateKind.CZ else None)


# --- reference-edge durations ---

DURATION_TABLE = [
    (GateKind.ZZ, DIRECT, OptLevel.DEFAULT, 490.0),
    (GateKind.ZZ, ECR, OptLevel.DEFAULT, 640.0),
    (GateKind.CZ, DIRECT, OptLevel.DEFAULT, 309.3),
    (GateKind.CZ, ECR, OptLevel.DEFAULT, 384.0),
    (GateKind.CZ, ECR, OptLevel.ZZ_OPT, 352.0),
    (GateKind.ZZ_SWAP, DIRECT, OptLevel.DEFAULT, 800.0),
    (GateKind.ZZ_SWAP, ECR, OptLevel.DEFAULT, 992.0),
    (GateKind.ZZ_SWAP, ECR, OptLevel.ZZ_SWAP_OPT, 992.0),
]


@pytest.mark.parametrize("target,edge,opt,expected", DURATION_TABLE)
def test_reference_durations_exact(target, edge, opt, expected):
    unit = helpers.two_qubit_unit(target, 0.5, edge, DEV, opt)
    assert unit.duration_ns == expected


def test_zz_opt_reference_point():
    unit = helpers.two_qubit_unit(GateKind.ZZ, math.pi, ECR, DEV, OptLevel.ZZ_OPT)
    assert unit.duration_ns == pytest.approx(241.8)
    assert unit.cx_count == 0
    assert unit.pulse


def test_zz_swap_opt_has_no_cx():
    unit = helpers.two_qubit_unit(GateKind.ZZ_SWAP, 0.7, ECR, DEV, OptLevel.ZZ_SWAP_OPT)
    assert unit.cx_count == 0
    assert unit.duration_ns == 992.0


def test_direct_edges_ignore_opt_levels():
    for opt in OptLevel:
        unit = helpers.two_qubit_unit(GateKind.ZZ, 0.7, DIRECT, DEV, opt)
        assert unit.cx_count == 2 and not unit.pulse


def test_zz_opt_duration_monotone_in_angle():
    previous = -1.0
    for theta in np.linspace(0.0, math.pi, 40):
        d = lower.zz_opt_duration(theta, ECR, DEV)
        assert d >= previous
        previous = d


def test_zz_opt_duration_cap():
    from bqaoa.device import CrScaleModel

    capped_dev = DeviceModel(
        DEV.name, DEV.num_qubits, DEV.qubits, DEV.edges,
        DEV.single_qubit_durations_ns, CrScaleModel(64.0, 10000.0)
    )
    assert lower.zz_opt_duration(math.pi, ECR, capped_dev) == 640.0


@pytest.mark.parametrize("key", device.COMPOSITE_PIN_KEYS)
def test_every_accepted_pin_key_changes_a_rule(key):
    # the loader accepts exactly the pins that some lowering rule reads
    doc = json.loads(data_path("ehningen_fragment.json").read_text())
    plain = device.device_from_dict(doc)
    assert not plain.edge_between(1, 0).composite_durations_ns
    doc["edges"][0]["composite_durations_ns"] = {key: 1234.5}
    pinned = device.device_from_dict(doc)

    def durations(dev):
        edge = dev.edge_between(1, 0)
        return [
            helpers.two_qubit_unit(target, 0.7, edge, dev, opt).duration_ns
            for target in TWO_QUBIT_TARGETS
            for opt in OptLevel
        ]

    assert durations(pinned) != durations(plain)


def test_angle_wrapping_bounds_pulse_duration():
    d1 = lower.zz_opt_duration(0.5, ECR, DEV)
    d2 = lower.zz_opt_duration(0.5 + 2 * math.pi, ECR, DEV)
    assert d1 == pytest.approx(d2)


# --- decomposition equivalence ---


@pytest.mark.parametrize("target", TWO_QUBIT_TARGETS)
@pytest.mark.parametrize("edge", (ECR, DIRECT), ids=("ecr", "direct"))
@pytest.mark.parametrize("opt", list(OptLevel))
@pytest.mark.parametrize("polarity", list(Polarity))
def test_expansions_match_targets(target, edge, opt, polarity):
    rng = np.random.default_rng(11)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 50):
        unit = helpers.two_qubit_unit(target, float(theta), edge, DEV, opt, polarity)
        u = helpers.unitary_of(CircuitIR(2, helpers.unit_gates(unit, DEV)))
        assert helpers.equal_up_to_phase(u, target_unitary(target, float(theta)), 1e-9)


def polarity_pair(target, edge, theta=None):
    """CT and TC realizations of one target on a two-wire frame (0 = control)."""
    return tuple(
        helpers.two_qubit_unit(target, theta, edge, DEV, OptLevel.DEFAULT, polarity)
        for polarity in (Polarity.CT, Polarity.TC)
    )


def test_polarity_variants_zz_swap():
    ct, tc = polarity_pair(GateKind.ZZ_SWAP, ECR, theta=0.9)
    u_ct = helpers.unitary_of(CircuitIR(2, helpers.unit_gates(ct, DEV)))
    u_tc = helpers.unitary_of(CircuitIR(2, helpers.unit_gates(tc, DEV)))
    assert helpers.equal_up_to_phase(u_ct, u_tc, 1e-9)
    assert tc.duration_ns > ct.duration_ns


def test_polarity_variants_cz_duration_arithmetic():
    ct, tc = polarity_pair(GateKind.CZ, DIRECT)
    s = DEV.single_qubit_duration("sx")
    assert tc.duration_ns == ct.duration_ns + 2 * s


def test_polarity_variants_zz_zero_angle():
    for unit in polarity_pair(GateKind.ZZ, ECR, theta=0.0):
        u = helpers.unitary_of(CircuitIR(2, helpers.unit_gates(unit, DEV)))
        assert helpers.equal_up_to_phase(u, np.eye(4), 1e-9)


# --- effective error ---


def test_error_two_cx_closed_form():
    dev = make_device(ecr_error=0.0083, sx_error=0.0)
    edge = dev.edge_between(0, 1)
    unit = helpers.two_qubit_unit(GateKind.ZZ, 0.5, edge, dev, OptLevel.DEFAULT)
    assert unit.error == pytest.approx(1 - (1 - 0.0083) ** 2)


def test_error_zero_error_edge():
    dev = make_device(ecr_error=0.0, sx_error=0.0)
    edge = dev.edge_between(0, 1)
    unit = helpers.two_qubit_unit(GateKind.ZZ_SWAP, 0.5, edge, dev, OptLevel.DEFAULT)
    assert unit.error == 0.0


def test_error_pulse_at_zero_angle_is_overhead_only():
    unit = helpers.two_qubit_unit(GateKind.ZZ, 0.0, ECR, DEV, OptLevel.ZZ_OPT)
    overhead_layers = round(DEV.cr_scale.intercept_ns / 32)
    assert unit.error == pytest.approx(1 - (1 - 0.0002) ** overhead_layers)


def test_error_opt_not_worse_than_default():
    for target in TWO_QUBIT_TARGETS:
        level = OptLevel.ZZ_SWAP_OPT if target is GateKind.ZZ_SWAP else OptLevel.ZZ_OPT
        for theta in np.linspace(-math.pi, math.pi, 21):
            default = helpers.two_qubit_unit(target, float(theta), ECR, DEV, OptLevel.DEFAULT)
            optd = helpers.two_qubit_unit(target, float(theta), ECR, DEV, level)
            assert optd.error <= default.error


def test_error_cx_form_counts_single_qubit_gates():
    unit = helpers.two_qubit_unit(GateKind.CZ, None, DIRECT, DEV, OptLevel.DEFAULT)
    expected = 1 - (1 - DIRECT.cx_error) * (1 - 0.0002) ** 2
    assert unit.error == pytest.approx(expected)


SHIPPED = {name: device.load_device(data_path(f"{name}.json"))
           for name in ("ehningen", "ehningen_fragment")}


def test_sx_count_table_matches_expansions():
    assert len(lower._SX_COUNTS) == 8
    for kind in (GateKind.CX, *TWO_QUBIT_TARGETS):
        for polarity in Polarity:
            expected = helpers.sx_counts(kind, polarity)
            assert lower._SX_COUNTS[kind, polarity] == expected, (kind, polarity)


@pytest.mark.parametrize("opt", list(OptLevel), ids=lambda o: o.value)
@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_effective_error_bitwise_equals_gate_counting_reference(name, opt):
    # the count table and the pulse arithmetic must give exactly the errors
    # the reference gives by counting the expansion and reading the rule table
    dev = SHIPPED[name]
    assert any(edge.composite_durations_ns for edge in dev.edges)
    pulses = 0
    for edge in dev.edges:
        for target in (GateKind.CX, *TWO_QUBIT_TARGETS):
            for polarity in Polarity:
                for theta in (-2.5, 0.0, math.pi / 2, 3.0):
                    for physical in (edge.pair, edge.pair[::-1]):
                        unit = apply_rule(
                            target, theta, (0, 1), physical, edge, dev, opt, polarity
                        )
                        gates = helpers.unit_gates(unit, dev)
                        expected = oracles.effective_error(unit, gates, edge, dev)
                        assert unit.error == expected, unit.label
                        pulses += unit.pulse
    assert (pulses > 0) is (opt is not OptLevel.DEFAULT)


def side_counts(unit, gates, control_wire):
    """(on the native control?, count) of the unit's non-virtual single-qubit
    gates, per side in order of first appearance."""
    counts = {}
    for g in gates:
        if g.kind in (GateKind.RZ, GateKind.CX) or len(g.qubits) != 1:
            continue
        counts[g.qubits[0]] = counts.get(g.qubits[0], 0) + 1
    return tuple((wire == control_wire, n) for wire, n in counts.items())


def assert_gates_match_count_table(lowered, dev):
    for unit in lowered.units:
        if len(unit.wires) != 2:
            continue
        gates = helpers.unit_gates(unit, dev)
        control_wire = helpers.native_control_wire(unit, dev)
        cxs = [g for g in gates if g.kind is GateKind.CX]
        assert len(cxs) == unit.cx_count, unit.label
        assert all(g.qubits[0] == control_wire for g in cxs), unit.label
        if not unit.pulse:
            counts = side_counts(unit, gates, control_wire)
            assert counts == lower._SX_COUNTS[unit.kind, unit.polarity]


@pytest.mark.parametrize("opt", list(OptLevel), ids=lambda o: o.value)
def test_lowered_unit_gates_match_count_table(opt):
    dev = SHIPPED["ehningen"]
    template = optimize.selection_template(qaoa.encode_maxcut(helpers.complete_maxcut(4)))
    for chain in mapper.enumerate_chains(dev, 4):
        lowered = lower.lower_circuit(template, chain, dev, opt)
        assert_gates_match_count_table(lowered, dev)
    # directed CX in both polarities, plus CZ, on the fragment's two flavors
    gates = (cir.cx(0, 1), cir.cx(2, 1), cir.cx(1, 0), cir.cz(1, 2), cir.zz(0.3, 0, 1))
    fragment = SHIPPED["ehningen_fragment"]
    lowered = lower.lower_circuit(CircuitIR(3, gates), (0, 1, 4), fragment, opt)
    assert {u.polarity for u in lowered.units if u.kind is GateKind.CX} == set(Polarity)
    assert_gates_match_count_table(lowered, fragment)


# --- whole-circuit lowering ---


def test_lower_circuit_preserves_unitary_and_counts():
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(3))
    circ = qaoa.build_swap_network(prob, qaoa.ParamVector((0.4,), (0.7,)))
    lowered = lower.lower_circuit(circ, (0, 1, 2), DEV, OptLevel.DEFAULT)
    u_low = helpers.unitary_of(helpers.without_measurements(helpers.flatten(lowered, DEV)))
    u_log = helpers.unitary_of(helpers.without_measurements(circ))
    assert helpers.equal_up_to_phase(u_low, u_log, 1e-9)
    # ZZ layers: 2 plain ZZ (2 CX each) + 1 ZZ_SWAP (3 CX)
    assert lowered.cx_count == 7
    assert lowered.measure_map() == circ.measure_map()


def test_lower_all_ecr_chain_zzswapopt_is_cx_free():
    qubit = DEV.qubits[0]
    edges = (
        EdgeCalibration(0, 1, GateFlavor.ECR_CX, 0.008, 320.0),
        EdgeCalibration(1, 2, GateFlavor.ECR_CX, 0.009, 340.0),
        EdgeCalibration(2, 3, GateFlavor.ECR_CX, 0.007, 330.0),
    )
    dev = DeviceModel("ecrline", 4, (qubit,) * 4, edges)
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(4))
    circ = qaoa.build_swap_network(prob, qaoa.ParamVector((0.4, 0.2), (0.7, 0.3)))
    lowered = lower.lower_circuit(circ, (0, 1, 2, 3), dev, OptLevel.ZZ_SWAP_OPT)
    assert lowered.cx_count == 0


def test_lower_reference_durations_via_schedule(fragment):
    # one ZZ on the [1, 4] direct edge: total schedule equals the pinned 490
    circ = CircuitIR(2, (cir.zz(0.5, 0, 1),))
    lowered = lower.lower_circuit(circ, (1, 4), fragment, OptLevel.DEFAULT)
    assert lowered.total_duration_ns == 490.0
    lowered = lower.lower_circuit(circ, (1, 0), fragment, OptLevel.DEFAULT)
    assert lowered.total_duration_ns == 640.0
    lowered = lower.lower_circuit(circ, (1, 0), fragment, OptLevel.ZZ_OPT)
    assert lowered.cx_count == 0


def test_lower_rejects_bad_chains(fragment):
    circ = CircuitIR(2, (cir.zz(0.5, 0, 1),))
    with pytest.raises(ValidationError, match="share no edge"):
        lower.lower_circuit(circ, (0, 4), fragment)
    circ3 = CircuitIR(3, (cir.zz(0.5, 0, 2),))
    with pytest.raises(InfeasibleError, match="not nearest-neighbour"):
        lower.lower_circuit(circ3, (0, 1, 4), fragment)


def test_lower_report_rows():
    circ = CircuitIR(2, (cir.h(0), cir.zz(0.5, 0, 1)))
    lowered = lower.lower_circuit(circ, (0, 1), DEV, OptLevel.ZZ_OPT)
    rows = lowered.report()
    assert rows[0]["kind"] == "h"
    zz_row = rows[1]
    assert zz_row["flavor"] == "ecr"
    assert zz_row["polarity"] == "ct"
    assert zz_row["cx_cost"] == 0
    assert 0 < zz_row["error"] < 1


def test_logical_cx_native_and_reversed():
    # native direction passes through; the reversed direction pays the
    # conjugation layers and still implements CX with the stated control
    circ_native = CircuitIR(2, (cir.cx(0, 1),))
    lowered = lower.lower_circuit(circ_native, (1, 0), DEV)  # wire0 -> q1 (control)
    unit = lowered.units[0]
    assert unit.polarity is Polarity.CT
    assert unit.duration_ns == 320.0
    assert unit.cx_count == 1

    circ_reversed = CircuitIR(2, (cir.cx(1, 0),))
    lowered = lower.lower_circuit(circ_reversed, (1, 0), DEV)
    unit = lowered.units[0]
    assert unit.polarity is Polarity.TC
    assert unit.duration_ns == 320.0 + 2 * 32.0
    assert unit.cx_count == 1
    u = helpers.unitary_of(helpers.flatten(lowered, DEV))
    assert helpers.equal_up_to_phase(u, helpers.unitary_of(circ_reversed), 1e-9)


def test_barrier_lowers_to_zero_duration_sync():
    circ = CircuitIR(2, (cir.sx(0), cir.barrier(0, 1), cir.sx(1)))
    lowered = lower.lower_circuit(circ, (0, 1), DEV)
    barrier_unit = lowered.units[1]
    assert barrier_unit.duration_ns == 0.0
    # the barrier pushes the second SX behind the first
    assert lowered.start_times[2] == 32.0


# --- report labels ---

#: (target, edge, opt level, polarity, report label)
TWO_QUBIT_LABELS = [
    (GateKind.CX, ECR, OptLevel.DEFAULT, Polarity.CT, "cx.ecr.ct"),
    (GateKind.CX, ECR, OptLevel.DEFAULT, Polarity.TC, "cx.ecr.tc"),
    (GateKind.CX, ECR, OptLevel.ZZ_OPT, Polarity.CT, "cx.ecr.ct"),
    (GateKind.CX, ECR, OptLevel.ZZ_OPT, Polarity.TC, "cx.ecr.tc"),
    (GateKind.CX, ECR, OptLevel.ZZ_SWAP_OPT, Polarity.CT, "cx.ecr.ct"),
    (GateKind.CX, ECR, OptLevel.ZZ_SWAP_OPT, Polarity.TC, "cx.ecr.tc"),
    (GateKind.CZ, ECR, OptLevel.DEFAULT, Polarity.CT, "cz.ecr.default.ct"),
    (GateKind.CZ, ECR, OptLevel.DEFAULT, Polarity.TC, "cz.ecr.default.tc"),
    (GateKind.CZ, ECR, OptLevel.ZZ_OPT, Polarity.CT, "cz.ecr.opt.ct"),
    (GateKind.CZ, ECR, OptLevel.ZZ_OPT, Polarity.TC, "cz.ecr.opt.tc"),
    (GateKind.CZ, ECR, OptLevel.ZZ_SWAP_OPT, Polarity.CT, "cz.ecr.opt.ct"),
    (GateKind.CZ, ECR, OptLevel.ZZ_SWAP_OPT, Polarity.TC, "cz.ecr.opt.tc"),
    (GateKind.ZZ, ECR, OptLevel.DEFAULT, Polarity.CT, "zz.ecr.default.ct"),
    (GateKind.ZZ, ECR, OptLevel.DEFAULT, Polarity.TC, "zz.ecr.default.tc"),
    (GateKind.ZZ, ECR, OptLevel.ZZ_OPT, Polarity.CT, "zz.ecr.opt.ct"),
    (GateKind.ZZ, ECR, OptLevel.ZZ_OPT, Polarity.TC, "zz.ecr.opt.tc"),
    (GateKind.ZZ, ECR, OptLevel.ZZ_SWAP_OPT, Polarity.CT, "zz.ecr.opt.ct"),
    (GateKind.ZZ, ECR, OptLevel.ZZ_SWAP_OPT, Polarity.TC, "zz.ecr.opt.tc"),
    (GateKind.ZZ_SWAP, ECR, OptLevel.DEFAULT, Polarity.CT, "zz_swap.ecr.default.ct"),
    (GateKind.ZZ_SWAP, ECR, OptLevel.DEFAULT, Polarity.TC, "zz_swap.ecr.default.tc"),
    (GateKind.ZZ_SWAP, ECR, OptLevel.ZZ_OPT, Polarity.CT, "zz_swap.ecr.default.ct"),
    (GateKind.ZZ_SWAP, ECR, OptLevel.ZZ_OPT, Polarity.TC, "zz_swap.ecr.default.tc"),
    (GateKind.ZZ_SWAP, ECR, OptLevel.ZZ_SWAP_OPT, Polarity.CT, "zz_swap.ecr.opt.ct"),
    (GateKind.ZZ_SWAP, ECR, OptLevel.ZZ_SWAP_OPT, Polarity.TC, "zz_swap.ecr.opt.tc"),
    (GateKind.CX, DIRECT, OptLevel.DEFAULT, Polarity.CT, "cx.direct.ct"),
    (GateKind.CX, DIRECT, OptLevel.DEFAULT, Polarity.TC, "cx.direct.tc"),
    (GateKind.CX, DIRECT, OptLevel.ZZ_OPT, Polarity.CT, "cx.direct.ct"),
    (GateKind.CX, DIRECT, OptLevel.ZZ_OPT, Polarity.TC, "cx.direct.tc"),
    (GateKind.CX, DIRECT, OptLevel.ZZ_SWAP_OPT, Polarity.CT, "cx.direct.ct"),
    (GateKind.CX, DIRECT, OptLevel.ZZ_SWAP_OPT, Polarity.TC, "cx.direct.tc"),
    (GateKind.CZ, DIRECT, OptLevel.DEFAULT, Polarity.CT, "cz.direct.default.ct"),
    (GateKind.CZ, DIRECT, OptLevel.DEFAULT, Polarity.TC, "cz.direct.default.tc"),
    (GateKind.CZ, DIRECT, OptLevel.ZZ_OPT, Polarity.CT, "cz.direct.default.ct"),
    (GateKind.CZ, DIRECT, OptLevel.ZZ_OPT, Polarity.TC, "cz.direct.default.tc"),
    (GateKind.CZ, DIRECT, OptLevel.ZZ_SWAP_OPT, Polarity.CT, "cz.direct.default.ct"),
    (GateKind.CZ, DIRECT, OptLevel.ZZ_SWAP_OPT, Polarity.TC, "cz.direct.default.tc"),
    (GateKind.ZZ, DIRECT, OptLevel.DEFAULT, Polarity.CT, "zz.direct.default.ct"),
    (GateKind.ZZ, DIRECT, OptLevel.DEFAULT, Polarity.TC, "zz.direct.default.tc"),
    (GateKind.ZZ, DIRECT, OptLevel.ZZ_OPT, Polarity.CT, "zz.direct.default.ct"),
    (GateKind.ZZ, DIRECT, OptLevel.ZZ_OPT, Polarity.TC, "zz.direct.default.tc"),
    (GateKind.ZZ, DIRECT, OptLevel.ZZ_SWAP_OPT, Polarity.CT, "zz.direct.default.ct"),
    (GateKind.ZZ, DIRECT, OptLevel.ZZ_SWAP_OPT, Polarity.TC, "zz.direct.default.tc"),
    (GateKind.ZZ_SWAP, DIRECT, OptLevel.DEFAULT, Polarity.CT, "zz_swap.direct.default.ct"),
    (GateKind.ZZ_SWAP, DIRECT, OptLevel.DEFAULT, Polarity.TC, "zz_swap.direct.default.tc"),
    (GateKind.ZZ_SWAP, DIRECT, OptLevel.ZZ_OPT, Polarity.CT, "zz_swap.direct.default.ct"),
    (GateKind.ZZ_SWAP, DIRECT, OptLevel.ZZ_OPT, Polarity.TC, "zz_swap.direct.default.tc"),
    (GateKind.ZZ_SWAP, DIRECT, OptLevel.ZZ_SWAP_OPT, Polarity.CT, "zz_swap.direct.default.ct"),
    (GateKind.ZZ_SWAP, DIRECT, OptLevel.ZZ_SWAP_OPT, Polarity.TC, "zz_swap.direct.default.tc"),
]


@pytest.mark.parametrize("target,edge,opt,polarity,label", TWO_QUBIT_LABELS)
def test_two_qubit_labels(target, edge, opt, polarity, label):
    physical = (edge.control, edge.target)
    unit = apply_rule(target, 0.5, (0, 1), physical, edge, DEV, opt, polarity)
    assert unit.label == label


def test_single_wire_labels():
    circ = CircuitIR(
        2,
        (cir.h(0), cir.x(1), cir.sx(0), cir.rx(0.3, 1), cir.ry(0.2, 0), cir.rz(0.1, 1),
         cir.barrier(0, 1), cir.measure(0, 0), cir.measure(1, 1)),
        num_clbits=2,
    )
    lowered = lower.lower_circuit(circ, (0, 1), DEV)
    assert [row["label"] for row in lowered.report()] == [
        "h", "x", "sx", "rx", "ry", "rz", "barrier", "measure", "measure",
    ]
