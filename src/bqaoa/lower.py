"""Lower logical gates onto a physical chain, by edge flavor and opt level.

Rule table for two-qubit composites (CT = hardware-native CX polarity,
D = edge CX duration, s = single-qubit gate duration):

=========  =======  ===========  =================================  ====
target     flavor   opt level    realization / duration             CX
=========  =======  ===========  =================================  ====
ZZ         direct   any          CX.RZ.CX                 2D        2
ZZ         ecr      default      CX.RZ.CX                 2D        2
ZZ         ecr      zz/zzswap    scaled CR pulse, affine in |angle|  0
CZ         direct   any          H-conjugated CX          D + 2s    1
CZ         ecr      default      H-conjugated CX          D + 2s    1
CZ         ecr      zz/zzswap    pulse (CZ_OPT)           D + s     0
ZZ_SWAP    direct   any          3-CX form                3D + 2s   3
ZZ_SWAP    ecr      default/zz   3-CX form                3D + s    3
ZZ_SWAP    ecr      zzswap       3 x CZ_OPT pulse, same duration as  0
                                 the default form on that edge
=========  =======  ===========  =================================  ====

An edge may pin measured composite durations (``composite_durations_ns``,
keys ``zz``, ``cz``, ``cz_opt``, ``zz_swap``, ``zz_swap_opt``); a pin takes
precedence over its formula (``_pinned``).  The TC polarity wraps each CX in
the single-qubit conjugation that reverses its direction and costs one
extra single-qubit layer per side (duration CT + 2s).

Effective error of a CX-based form is 1 - (1-cx_error)^#CX * prod over
non-virtual single-qubit gates of (1-sx_error).  The per-side gate counts
depend only on the target kind and polarity, so a literal table
(``_SX_COUNTS``) holds them.  Pulse forms scale the CX error by duration:
each constituent CR segment of length u contributes a factor
(1 - cx_error * u / D), and the single-qubit overhead contributes
(1 - mean sx_error) per surviving 32 ns layer.

Lowering builds no gates.  ``apply_rule`` returns the scheduled
``LoweredUnit`` of a composite (kind, angle, polarity, pulse flag, and the
duration, CX count and effective error of its rule), which is all that
scheduling and the simulator read.  Measure, barrier and one-qubit gates
each become one unit that differs only in duration and error.  A unit's
report ``label`` is derived from its kind, flavor, pulse flag and polarity.
The hardware-gate expansion each rule stands for is the test suite's
reference (``tests/helpers.py``): it is checked against the target unitary
and against ``_SX_COUNTS``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import circuit as cir
from .circuit import CircuitIR, Gate, GateKind
from .device import DeviceModel, EdgeCalibration, GateFlavor
from .errors import InfeasibleError, ValidationError


class OptLevel(enum.Enum):
    DEFAULT = "default"
    ZZ_OPT = "zzopt"
    ZZ_SWAP_OPT = "zzswapopt"


class Polarity(enum.Enum):
    CT = "ct"
    TC = "tc"


def wrap_angle(theta: float) -> float:
    """Reduce to (-pi, pi]; ZZ-type gates differ only by a global phase."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


#: (on the native control?, count) of the non-virtual single-qubit gates
#: (the SX of each H conjugation) of every CX-based form, per side in order
#: of first appearance, which fixes the order ``apply_rule`` multiplies in
_SX_COUNTS = {
    (GateKind.CX, Polarity.CT): (),
    (GateKind.CX, Polarity.TC): ((True, 2), (False, 2)),
    (GateKind.ZZ, Polarity.CT): (),
    (GateKind.ZZ, Polarity.TC): ((True, 4), (False, 4)),
    (GateKind.CZ, Polarity.CT): ((False, 2),),
    (GateKind.CZ, Polarity.TC): ((True, 4), (False, 2)),
    (GateKind.ZZ_SWAP, Polarity.CT): ((True, 2), (False, 2)),
    (GateKind.ZZ_SWAP, Polarity.TC): ((True, 4), (False, 4)),
}


@dataclass(frozen=True)
class LoweredUnit:
    """One scheduled unit of a lowered circuit (gate or composite)."""

    kind: GateKind
    wires: tuple[int, ...]
    physical: tuple[int, ...]
    duration_ns: float
    cx_count: int
    error: float
    angle: float | None = None
    flavor: GateFlavor | None = None
    polarity: Polarity | None = None
    pulse: bool = False
    clbit: int | None = None

    @property
    def label(self) -> str:
        """The kind off an edge, else kind.flavor.[opt.|default.]polarity
        (a directed CX has one form, so no form part)."""
        if self.flavor is None:
            return self.kind.value
        form = "" if self.kind is GateKind.CX else ("opt." if self.pulse else "default.")
        return f"{self.kind.value}.{self.flavor.value}.{form}{self.polarity.value}"


def _pinned(edge: EdgeCalibration, key: str, formula: float) -> float:
    """The edge's pinned duration of a composite, else the rule's formula."""
    pinned = edge.composite_duration(key)
    return formula if pinned is None else pinned


def zz_opt_duration(theta: float, edge: EdgeCalibration, dev: DeviceModel) -> float:
    """Pulse-scaled ZZ duration: affine in |angle|, capped at the CX form."""
    scaled = dev.cr_scale.intercept_ns + abs(wrap_angle(theta)) / math.pi * (
        dev.cr_scale.slope_ns_per_pi
    )
    return min(scaled, _pinned(edge, "zz", 2.0 * edge.cx_duration_ns))


def uses_pulse(edge: EdgeCalibration, opt: OptLevel, target: GateKind) -> bool:
    """Whether this edge/opt combination realizes the target as a pulse."""
    if edge.flavor is not GateFlavor.ECR_CX or opt is OptLevel.DEFAULT:
        return False
    if target is GateKind.ZZ_SWAP:
        return opt is OptLevel.ZZ_SWAP_OPT
    # ZZ and CZ are optimized at both opt levels; a directed CX never is
    return target in (GateKind.ZZ, GateKind.CZ)


def apply_rule(
    target: GateKind,
    theta: float | None,
    wires: tuple[int, int],
    physical: tuple[int, int],
    edge: EdgeCalibration,
    dev: DeviceModel,
    opt: OptLevel,
    polarity: Polarity = Polarity.CT,
) -> LoweredUnit:
    """The scheduled unit realizing one two-qubit target on one edge.

    ``wires`` are the circuit wires the target acts on, in its own order, and
    ``physical`` the qubits holding them.  Duration, CX count and effective
    error follow the rule table; TC adds one conjugation layer per side to
    the duration and, of a pulse form, to its single-qubit overhead.
    """
    s = dev.single_qubit_duration("sx")
    d = edge.cx_duration_ns
    pulse = uses_pulse(edge, opt, target)
    tc = polarity is Polarity.TC
    # a pulse form is ``segments`` CR segments of ``segment`` ns each plus
    # ``overhead_1q`` single-qubit layers
    cx_count, segment, segments, overhead_1q = 0, 0.0, 0, 0
    if target is GateKind.CX:
        duration, cx_count = d, 1
    elif target is GateKind.ZZ and pulse:
        duration = zz_opt_duration(theta, edge, dev)
        intercept = dev.cr_scale.intercept_ns
        segment, segments = max(0.0, (duration - intercept) / 2.0), 2
        overhead_1q = int(round(intercept / s)) if s > 0 else 0
    elif target is GateKind.ZZ:
        duration, cx_count = _pinned(edge, "zz", 2.0 * d), 2
    elif target is GateKind.CZ and pulse:
        duration = _pinned(edge, "cz_opt", d + s)
        segment, segments, overhead_1q = max(0.0, (duration - s) / 2.0), 2, 1
    elif target is GateKind.CZ:
        duration, cx_count = _pinned(edge, "cz", d + 2.0 * s), 1
    elif target is GateKind.ZZ_SWAP:
        layers = 1 if edge.flavor is GateFlavor.ECR_CX else 2
        duration, cx_count = _pinned(edge, "zz_swap", 3.0 * d + layers * s), 3
        if pulse:
            # three CZ_OPT constituents, as long as the 3-CX form unless pinned
            duration, cx_count = _pinned(edge, "zz_swap_opt", duration), 0
            segment = max(0.0, (_pinned(edge, "cz_opt", d + s) - s) / 2.0)
            segments, overhead_1q = 6, 3
    else:
        raise ValidationError(f"no lowering rule for two-qubit kind {target.value}")

    sx_a = dev.qubits[edge.control].sx_error
    sx_b = dev.qubits[edge.target].sx_error
    if pulse:
        survival = (1.0 - 0.5 * (sx_a + sx_b)) ** (overhead_1q + (2 if tc else 0))
        factor = max(0.0, 1.0 - edge.cx_error * segment / edge.cx_duration_ns)
        for _ in range(segments):
            survival *= factor
    else:
        survival = (1.0 - edge.cx_error) ** cx_count
        for on_control, count in _SX_COUNTS[target, polarity]:
            survival *= (1.0 - (sx_a if on_control else sx_b)) ** count
    return LoweredUnit(
        kind=target, wires=wires, physical=physical,
        duration_ns=duration + (2.0 * s if tc else 0.0), cx_count=cx_count,
        error=min(1.0, max(0.0, 1.0 - survival)),
        angle=theta, flavor=edge.flavor, polarity=polarity, pulse=pulse,
    )


@dataclass(frozen=True)
class LoweredCircuit:
    """A chain-mapped circuit: scheduled units plus accounting totals."""

    units: tuple[LoweredUnit, ...]
    start_times: tuple[float, ...]
    total_duration_ns: float
    cx_count: int
    chain: tuple[int, ...]
    opt: OptLevel
    num_clbits: int

    @property
    def num_qubits(self) -> int:
        return len(self.chain)

    def measure_map(self) -> dict[int, int]:
        return {
            u.wires[0]: u.clbit for u in self.units if u.kind is GateKind.MEASURE
        }

    def report(self) -> list[dict]:
        """Per-unit lowering report rows (CLI/JSON surface)."""
        return [
            {
                "kind": unit.kind.value,
                "label": unit.label,
                "wires": list(unit.wires),
                "physical": list(unit.physical),
                "flavor": unit.flavor.value if unit.flavor else None,
                "polarity": unit.polarity.value if unit.polarity else None,
                "angle": unit.angle,
                "start_ns": start,
                "duration_ns": unit.duration_ns,
                "cx_cost": unit.cx_count,
                "error": unit.error,
            }
            for unit, start in zip(self.units, self.start_times)
        ]


_SINGLE_QUBIT_DURATION_KEY = {
    GateKind.H: "sx",
    GateKind.X: "x",
    GateKind.SX: "sx",
    GateKind.RX: "rx",
    GateKind.RY: "ry",
    GateKind.RZ: "rz",
}

#: the two-qubit targets ``apply_rule`` has a rule for (SWAP has none)
_TWO_QUBIT_RULE_KINDS = {kind for kind, _ in _SX_COUNTS}


def validate_chain(chain: tuple[int, ...], dev: DeviceModel) -> None:
    if len(set(chain)) != len(chain):
        raise ValidationError(f"chain {chain} repeats a qubit")
    for q in chain:
        if not 0 <= q < dev.num_qubits:
            raise ValidationError(f"chain qubit {q} outside device")
    for a, b in zip(chain, chain[1:]):
        if dev.edge_between(a, b) is None:
            raise ValidationError(f"chain qubits {a} and {b} share no edge")


def lower_gate(
    g: Gate, chain: tuple[int, ...], dev: DeviceModel, opt: OptLevel
) -> LoweredUnit:
    """The scheduled unit of one logical gate, wire i on physical qubit
    chain[i].  A two-qubit gate must act on adjacent wires; undirected gates
    run the hardware-native CT polarity, and a directed CX forces its own."""
    if g.kind in _TWO_QUBIT_RULE_KINDS:
        w1, w2 = g.qubits
        if abs(w1 - w2) != 1:
            raise InfeasibleError(
                f"{g.kind.value} on wires {g.qubits} is not nearest-neighbour"
            )
        physical = (chain[w1], chain[w2])
        edge = dev.edge_between(*physical)  # validate_chain: never None
        reverse = g.kind is GateKind.CX and physical[0] != edge.control
        polarity = Polarity.TC if reverse else Polarity.CT
        return apply_rule(g.kind, g.param, g.qubits, physical, edge, dev, opt, polarity)
    physical = tuple(chain[w] for w in g.qubits)
    if g.kind is GateKind.MEASURE:
        duration, error = dev.qubits[physical[0]].readout_length_ns, 0.0
    elif g.kind is GateKind.BARRIER:
        duration, error = 0.0, 0.0
    elif g.kind in _SINGLE_QUBIT_DURATION_KEY:
        duration = dev.single_qubit_duration(_SINGLE_QUBIT_DURATION_KEY[g.kind])
        error = 0.0 if g.kind is GateKind.RZ else dev.qubits[physical[0]].sx_error
    else:
        raise ValidationError(f"no lowering rule for kind {g.kind.value}")
    return LoweredUnit(
        kind=g.kind, wires=g.qubits, physical=physical, duration_ns=duration,
        cx_count=0, error=error, angle=g.param, clbit=g.clbit,
    )


def lower_circuit(
    c: CircuitIR,
    chain: tuple[int, ...] | list[int],
    dev: DeviceModel,
    opt: OptLevel = OptLevel.DEFAULT,
) -> LoweredCircuit:
    """Map a logical linear-topology circuit onto a device chain, one
    ``lower_gate`` per gate, and schedule it ASAP."""
    chain = tuple(chain)
    if c.num_qubits != len(chain):
        raise ValidationError(
            f"circuit has {c.num_qubits} wires but chain has {len(chain)} qubits"
        )
    validate_chain(chain, dev)
    units = [lower_gate(g, chain, dev, opt) for g in c.gates]
    starts, total = cir.asap_start_times(
        [(u.wires, u.duration_ns) for u in units], len(chain)
    )
    return LoweredCircuit(
        units=tuple(units),
        start_times=tuple(starts),
        total_duration_ns=total,
        cx_count=sum(u.cx_count for u in units),
        chain=chain,
        opt=opt,
        num_clbits=c.num_clbits,
    )
