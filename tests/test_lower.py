import math

import numpy as np
import pytest

import helpers
from bqaoa import circuit as cir
from bqaoa import lower, qaoa
from bqaoa.circuit import CircuitIR, GateKind
from bqaoa.device import DeviceModel, EdgeCalibration, GateFlavor, QubitCalibration
from bqaoa.errors import MissingEdgeError, NonAdjacentGateError
from bqaoa.lower import OptLevel, Polarity, apply_rule, effective_error

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
    app = apply_rule(target, 0.5, 0, 1, edge, DEV, opt)
    assert app.duration_ns == expected


def test_zz_opt_reference_point():
    app = apply_rule(GateKind.ZZ, math.pi, 0, 1, ECR, DEV, OptLevel.ZZ_OPT)
    assert app.duration_ns == pytest.approx(241.8)
    assert app.cx_count == 0
    assert app.pulse


def test_zz_swap_opt_has_no_cx():
    app = apply_rule(GateKind.ZZ_SWAP, 0.7, 0, 1, ECR, DEV, OptLevel.ZZ_SWAP_OPT)
    assert app.cx_count == 0
    assert app.duration_ns == 992.0


def test_direct_edges_ignore_opt_levels():
    for opt in OptLevel:
        app = apply_rule(GateKind.ZZ, 0.7, 0, 1, DIRECT, DEV, opt)
        assert app.cx_count == 2 and not app.pulse


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
        app = apply_rule(target, float(theta), 0, 1, edge, DEV, opt, polarity)
        u = helpers.unitary_of(CircuitIR(2, app.gates))
        assert helpers.equal_up_to_phase(u, target_unitary(target, float(theta)), 1e-9)


def polarity_pair(target, edge, theta=None):
    """CT and TC realizations of one target on a two-wire frame (0 = control)."""
    return tuple(
        apply_rule(target, theta, 0, 1, edge, DEV, OptLevel.DEFAULT, polarity)
        for polarity in (Polarity.CT, Polarity.TC)
    )


def test_polarity_variants_zz_swap():
    ct, tc = polarity_pair(GateKind.ZZ_SWAP, ECR, theta=0.9)
    u_ct = helpers.unitary_of(CircuitIR(2, ct.gates))
    u_tc = helpers.unitary_of(CircuitIR(2, tc.gates))
    assert helpers.equal_up_to_phase(u_ct, u_tc, 1e-9)
    assert tc.duration_ns > ct.duration_ns


def test_polarity_variants_cz_duration_arithmetic():
    ct, tc = polarity_pair(GateKind.CZ, DIRECT)
    s = DEV.single_qubit_duration("sx")
    assert tc.duration_ns == ct.duration_ns + 2 * s


def test_polarity_variants_zz_zero_angle():
    for app in polarity_pair(GateKind.ZZ, ECR, theta=0.0):
        u = helpers.unitary_of(CircuitIR(2, app.gates))
        assert helpers.equal_up_to_phase(u, np.eye(4), 1e-9)


# --- effective error ---


def test_error_two_cx_closed_form():
    dev = make_device(ecr_error=0.0083, sx_error=0.0)
    edge = dev.edge_between(0, 1)
    app = apply_rule(GateKind.ZZ, 0.5, 0, 1, edge, dev, OptLevel.DEFAULT)
    assert effective_error(app, edge, dev) == pytest.approx(1 - (1 - 0.0083) ** 2)


def test_error_zero_error_edge():
    dev = make_device(ecr_error=0.0, sx_error=0.0)
    edge = dev.edge_between(0, 1)
    app = apply_rule(GateKind.ZZ_SWAP, 0.5, 0, 1, edge, dev, OptLevel.DEFAULT)
    assert effective_error(app, edge, dev) == 0.0


def test_error_pulse_at_zero_angle_is_overhead_only():
    app = apply_rule(GateKind.ZZ, 0.0, 0, 1, ECR, DEV, OptLevel.ZZ_OPT)
    got = effective_error(app, ECR, DEV)
    overhead_layers = round(DEV.cr_scale.intercept_ns / 32)
    assert got == pytest.approx(1 - (1 - 0.0002) ** overhead_layers)


def test_error_opt_not_worse_than_default():
    for target in TWO_QUBIT_TARGETS:
        level = OptLevel.ZZ_SWAP_OPT if target is GateKind.ZZ_SWAP else OptLevel.ZZ_OPT
        for theta in np.linspace(-math.pi, math.pi, 21):
            default = apply_rule(target, float(theta), 0, 1, ECR, DEV, OptLevel.DEFAULT)
            optd = apply_rule(target, float(theta), 0, 1, ECR, DEV, level)
            assert effective_error(optd, ECR, DEV) <= effective_error(
                default, ECR, DEV
            )


def test_error_cx_form_counts_single_qubit_gates():
    app = apply_rule(GateKind.CZ, None, 0, 1, DIRECT, DEV, OptLevel.DEFAULT)
    expected = 1 - (1 - DIRECT.cx_error) * (1 - 0.0002) ** 2
    assert effective_error(app, DIRECT, DEV) == pytest.approx(expected)


# --- whole-circuit lowering ---


def test_lower_circuit_preserves_unitary_and_counts():
    prob = qaoa.encode_maxcut(helpers.complete_maxcut(3))
    circ = qaoa.build_swap_network(prob, qaoa.ParamVector((0.4,), (0.7,)))
    lowered = lower.lower_circuit(circ, (0, 1, 2), DEV, OptLevel.DEFAULT)
    u_low = helpers.unitary_of(helpers.without_measurements(helpers.flatten(lowered)))
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
    with pytest.raises(MissingEdgeError):
        lower.lower_circuit(circ, (0, 4), fragment)
    circ3 = CircuitIR(3, (cir.zz(0.5, 0, 2),))
    with pytest.raises(NonAdjacentGateError):
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
    u = helpers.unitary_of(helpers.flatten(lowered))
    assert helpers.equal_up_to_phase(u, helpers.unitary_of(circ_reversed), 1e-9)


def test_barrier_lowers_to_zero_duration_sync():
    circ = CircuitIR(2, (cir.sx(0), cir.barrier(0, 1), cir.sx(1)))
    lowered = lower.lower_circuit(circ, (0, 1), DEV)
    barrier_unit = lowered.units[1]
    assert barrier_unit.duration_ns == 0.0
    # the barrier pushes the second SX behind the first
    assert lowered.start_times[2] == 32.0
