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

An edge may pin measured composite durations (``composite_durations_ns``);
pins take precedence over the formulas.  The TC polarity wraps each CX in
the single-qubit conjugation that reverses its direction and costs one
extra single-qubit layer per side (duration CT + 2s).

Effective error of a CX-based form is 1 - (1-cx_error)^#CX * prod over
non-virtual single-qubit gates of (1-sx_error).  The per-side gate counts
depend only on the target kind and polarity, so they sit in a table built
once from the expansions.  Pulse forms scale the CX error by duration:
each constituent CR segment of length u contributes a factor
(1 - cx_error * u / D), and the single-qubit overhead contributes
(1 - mean sx_error) per surviving 32 ns layer.

Lowering builds no gates.  A ``RuleApplication`` and a ``LoweredUnit``
carry the rule record (kind, angle, polarity, pulse and the wire of the
edge's native control), which is all that durations, errors, scheduling
and the simulator read.  Their ``gates`` property builds the hardware-gate
expansion from that record on demand, for inspection and tests.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from . import circuit as cir
from .circuit import CircuitIR, Gate, GateKind
from .device import DeviceModel, EdgeCalibration, GateFlavor
from .errors import (
    MissingEdgeError,
    NonAdjacentGateError,
    ValidationError,
)


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


def _h_gates(q: int) -> list[Gate]:
    # H = RZ(pi/2) . SX . RZ(pi/2) up to global phase (one timed pulse).
    half_pi = math.pi / 2.0
    return [cir.rz(half_pi, q), cir.sx(q), cir.rz(half_pi, q)]


def _reversed_cx(c: int, t: int) -> list[Gate]:
    """CX with control t and target c, via the native CX(c, t)."""
    return _h_gates(c) + _h_gates(t) + [cir.cx(c, t)] + _h_gates(c) + _h_gates(t)


def expansion(
    kind: GateKind,
    theta: float | None,
    polarity: Polarity,
    pulse: bool,
    c: int,
    t: int,
) -> tuple[Gate, ...]:
    """Hardware gates realizing a two-qubit target; c and t hold the edge's
    native control and target.  A pulse form stays one gate of its kind."""
    if pulse:
        return (Gate(kind, (c, t), param=None if kind is GateKind.CZ else theta),)
    tc = polarity is Polarity.TC
    if kind is GateKind.CX:
        gates = _reversed_cx(c, t) if tc else [cir.cx(c, t)]
    elif kind is GateKind.ZZ:
        if tc:
            gates = _reversed_cx(c, t) + [cir.rz(theta, c)] + _reversed_cx(c, t)
        else:
            gates = [cir.cx(c, t), cir.rz(theta, t), cir.cx(c, t)]
    elif kind is GateKind.CZ:
        if tc:
            gates = _h_gates(c) + _reversed_cx(c, t) + _h_gates(c)
        else:
            gates = _h_gates(t) + [cir.cx(c, t)] + _h_gates(t)
    elif kind is GateKind.ZZ_SWAP:
        # Time order CX(c,t), RZ(t), CX(t,c), CX(c,t) realizes SWAP.ZZ(theta);
        # under TC the roles of the wires exchange.
        if tc:
            gates = (
                _reversed_cx(c, t)
                + [cir.rz(theta, c), cir.cx(c, t)]
                + _reversed_cx(c, t)
            )
        else:
            gates = (
                [cir.cx(c, t), cir.rz(theta, t)]
                + _reversed_cx(c, t)
                + [cir.cx(c, t)]
            )
    else:
        raise ValidationError(f"no lowering rule for two-qubit kind {kind.value}")
    return tuple(gates)


def _single_qubit_counts(
    kind: GateKind, polarity: Polarity
) -> tuple[tuple[bool, int], ...]:
    """(on the native control?, count) of the non-virtual single-qubit gates
    of a CX-based form, per side in order of first appearance."""
    counts: dict[int, int] = {}
    for g in expansion(kind, 0.0, polarity, False, 0, 1):
        if g.kind in (GateKind.RZ, GateKind.CX) or len(g.qubits) != 1:
            continue
        counts[g.qubits[0]] = counts.get(g.qubits[0], 0) + 1
    return tuple((wire == 0, count) for wire, count in counts.items())


#: per-side single-qubit gate counts of every CX-based form, which
#: ``effective_error`` reads instead of expanding each composite
_SX_COUNTS = {
    (kind, polarity): _single_qubit_counts(kind, polarity)
    for kind in (GateKind.CX, GateKind.ZZ, GateKind.CZ, GateKind.ZZ_SWAP)
    for polarity in Polarity
}


@dataclass(frozen=True)
class RuleApplication:
    """One lowered two-qubit (or pulse) composite in the chain's wire frame."""

    label: str
    #: the target kind, angle and polarity the composite realizes
    kind: GateKind
    angle: float | None
    polarity: Polarity
    #: the wires holding the edge's native control and target
    control_wire: int
    target_wire: int
    duration_ns: float
    cx_count: int
    pulse: bool
    #: durations of the constituent CR segments of a pulse form (ns)
    segments: tuple[float, ...] = ()
    #: surviving single-qubit layers of a pulse form
    overhead_1q: int = 0

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The hardware-gate expansion, built on demand."""
        return expansion(
            self.kind, self.angle, self.polarity, self.pulse,
            self.control_wire, self.target_wire,
        )

    def unit(self, wires, physical, edge, dev) -> LoweredUnit:
        """The composite as the scheduled unit on ``wires`` (qubits ``physical``)."""
        return LoweredUnit(
            kind=self.kind, wires=wires, physical=physical,
            duration_ns=self.duration_ns, cx_count=self.cx_count,
            error=effective_error(self, edge, dev), label=self.label,
            angle=self.angle, flavor=edge.flavor, polarity=self.polarity,
            pulse=self.pulse, control_wire=self.control_wire,
        )


def _zz_default_duration(edge: EdgeCalibration) -> float:
    pinned = edge.composite_duration("zz")
    return pinned if pinned is not None else 2.0 * edge.cx_duration_ns


def _cz_default_duration(edge: EdgeCalibration, dev: DeviceModel) -> float:
    pinned = edge.composite_duration("cz")
    if pinned is not None:
        return pinned
    return edge.cx_duration_ns + 2.0 * dev.single_qubit_duration("sx")


def _cz_opt_duration(edge: EdgeCalibration, dev: DeviceModel) -> float:
    pinned = edge.composite_duration("cz_opt")
    if pinned is not None:
        return pinned
    return edge.cx_duration_ns + dev.single_qubit_duration("sx")


def _zz_swap_default_duration(edge: EdgeCalibration, dev: DeviceModel) -> float:
    pinned = edge.composite_duration("zz_swap")
    if pinned is not None:
        return pinned
    s = dev.single_qubit_duration("sx")
    layers = 1 if edge.flavor is GateFlavor.ECR_CX else 2
    return 3.0 * edge.cx_duration_ns + layers * s


def _zz_swap_opt_duration(edge: EdgeCalibration, dev: DeviceModel) -> float:
    pinned = edge.composite_duration("zz_swap_opt")
    if pinned is not None:
        return pinned
    return _zz_swap_default_duration(edge, dev)


def zz_opt_duration(theta: float, edge: EdgeCalibration, dev: DeviceModel) -> float:
    """Pulse-scaled ZZ duration: affine in |angle|, capped at the CX form."""
    scaled = dev.cr_scale.intercept_ns + abs(wrap_angle(theta)) / math.pi * (
        dev.cr_scale.slope_ns_per_pi
    )
    return min(scaled, _zz_default_duration(edge))


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
    control_wire: int,
    target_wire: int,
    edge: EdgeCalibration,
    dev: DeviceModel,
    opt: OptLevel,
    polarity: Polarity = Polarity.CT,
) -> RuleApplication:
    """Duration and cost of one two-qubit target on one edge.

    control_wire/target_wire are the circuit wires holding the edge's native
    control and target.  TC realizations build every CX in the reversed
    direction and add one conjugation layer per side to the duration.  The
    gate expansion is not built here; ``RuleApplication.gates`` builds it.
    """
    s = dev.single_qubit_duration("sx")
    flavor = edge.flavor.value
    tc_extra = 2.0 * s if polarity is Polarity.TC else 0.0
    pulse = uses_pulse(edge, opt, target)
    rule = functools.partial(
        RuleApplication, kind=target, angle=theta, polarity=polarity,
        control_wire=control_wire, target_wire=target_wire, pulse=pulse,
    )

    if target is GateKind.CX:
        return rule(
            label=f"cx.{flavor}.{polarity.value}",
            duration_ns=edge.cx_duration_ns + tc_extra,
            cx_count=1,
        )

    if target is GateKind.ZZ:
        if pulse:
            pulse_ns = zz_opt_duration(theta, edge, dev)
            overhead = dev.cr_scale.intercept_ns
            seg = max(0.0, (pulse_ns - overhead) / 2.0)
            n_overhead = int(round(overhead / s)) if s > 0 else 0
            return rule(
                label=f"zz.{flavor}.opt.{polarity.value}",
                duration_ns=pulse_ns + tc_extra,
                cx_count=0,
                segments=(seg, seg),
                overhead_1q=n_overhead + (2 if polarity is Polarity.TC else 0),
            )
        return rule(
            label=f"zz.{flavor}.default.{polarity.value}",
            duration_ns=_zz_default_duration(edge) + tc_extra,
            cx_count=2,
        )

    if target is GateKind.CZ:
        if pulse:
            pulse_ns = _cz_opt_duration(edge, dev)
            seg = max(0.0, (pulse_ns - s) / 2.0)
            return rule(
                label=f"cz.{flavor}.opt.{polarity.value}",
                duration_ns=pulse_ns + tc_extra,
                cx_count=0,
                segments=(seg, seg),
                overhead_1q=1 + (2 if polarity is Polarity.TC else 0),
            )
        return rule(
            label=f"cz.{flavor}.default.{polarity.value}",
            duration_ns=_cz_default_duration(edge, dev) + tc_extra,
            cx_count=1,
        )

    if target is GateKind.ZZ_SWAP:
        if pulse:
            seg = max(0.0, (_cz_opt_duration(edge, dev) - s) / 2.0)
            return rule(
                label=f"zz_swap.{flavor}.opt.{polarity.value}",
                duration_ns=_zz_swap_opt_duration(edge, dev) + tc_extra,
                cx_count=0,
                segments=(seg,) * 6,  # three CZ_OPT constituents
                overhead_1q=3 + (2 if polarity is Polarity.TC else 0),
            )
        return rule(
            label=f"zz_swap.{flavor}.default.{polarity.value}",
            duration_ns=_zz_swap_default_duration(edge, dev) + tc_extra,
            cx_count=3,
        )

    raise ValidationError(f"no lowering rule for two-qubit kind {target.value}")


def effective_error(
    app: RuleApplication, edge: EdgeCalibration, dev: DeviceModel
) -> float:
    """Probability that the rule-applied composite fails (fidelity proxy)."""
    qa, qb = edge.control, edge.target
    sx_a = dev.qubits[qa].sx_error
    sx_b = dev.qubits[qb].sx_error
    if app.pulse:
        mean_sx = 0.5 * (sx_a + sx_b)
        survival = (1.0 - mean_sx) ** app.overhead_1q
        for seg in app.segments:
            survival *= max(0.0, 1.0 - edge.cx_error * seg / edge.cx_duration_ns)
        return min(1.0, max(0.0, 1.0 - survival))
    survival = (1.0 - edge.cx_error) ** app.cx_count
    for on_control, count in _SX_COUNTS[app.kind, app.polarity]:
        survival *= (1.0 - (sx_a if on_control else sx_b)) ** count
    return min(1.0, max(0.0, 1.0 - survival))


@dataclass(frozen=True)
class LoweredUnit:
    """One scheduled unit of a lowered circuit (gate or composite)."""

    kind: GateKind
    wires: tuple[int, ...]
    physical: tuple[int, ...]
    duration_ns: float
    cx_count: int
    error: float
    label: str
    angle: float | None = None
    flavor: GateFlavor | None = None
    polarity: Polarity | None = None
    pulse: bool = False
    clbit: int | None = None
    #: of a two-qubit unit, the wire holding the edge's native control
    control_wire: int | None = None

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The unit's hardware gates, built on demand (none for a measurement)."""
        if self.kind is GateKind.MEASURE:
            return ()
        if self.kind is GateKind.BARRIER:
            return (cir.barrier(*self.wires),)
        if self.kind in _SINGLE_QUBIT_LOWERING:
            return _SINGLE_QUBIT_LOWERING[self.kind](self.angle, self.wires[0])
        c = self.control_wire
        t = self.wires[1] if self.wires[0] == c else self.wires[0]
        return expansion(self.kind, self.angle, self.polarity, self.pulse, c, t)


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
        rows = []
        for unit, start in zip(self.units, self.start_times):
            rows.append(
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
            )
        return rows


_SINGLE_QUBIT_LOWERING = {
    GateKind.H: lambda theta, w: tuple(_h_gates(w)),
    GateKind.X: lambda theta, w: (cir.x(w),),
    GateKind.SX: lambda theta, w: (cir.sx(w),),
    GateKind.RX: lambda theta, w: (cir.rx(theta, w),),
    GateKind.RY: lambda theta, w: (cir.ry(theta, w),),
    GateKind.RZ: lambda theta, w: (cir.rz(theta, w),),
}

_SINGLE_QUBIT_DURATION_KEY = {
    GateKind.H: "sx",
    GateKind.X: "x",
    GateKind.SX: "sx",
    GateKind.RX: "rx",
    GateKind.RY: "ry",
    GateKind.RZ: "rz",
}


def validate_chain(chain: tuple[int, ...], dev: DeviceModel) -> None:
    if len(set(chain)) != len(chain):
        raise ValidationError(f"chain {chain} repeats a qubit")
    for q in chain:
        if not 0 <= q < dev.num_qubits:
            raise ValidationError(f"chain qubit {q} outside device")
    for a, b in zip(chain, chain[1:]):
        if dev.edge_between(a, b) is None:
            raise MissingEdgeError(f"chain qubits {a} and {b} share no edge")


def lower_circuit(
    c: CircuitIR,
    chain: tuple[int, ...] | list[int],
    dev: DeviceModel,
    opt: OptLevel = OptLevel.DEFAULT,
) -> LoweredCircuit:
    """Map a logical linear-topology circuit onto a device chain.

    Wire i runs on physical qubit chain[i]; two-qubit gates must act on
    adjacent wires.  Undirected gates use the hardware-native CT polarity.
    """
    chain = tuple(chain)
    if c.num_qubits != len(chain):
        raise ValidationError(
            f"circuit has {c.num_qubits} wires but chain has {len(chain)} qubits"
        )
    validate_chain(chain, dev)

    units: list[LoweredUnit] = []
    for g in c.gates:
        if g.kind is GateKind.MEASURE:
            w = g.qubits[0]
            units.append(
                LoweredUnit(
                    kind=g.kind,
                    wires=(w,),
                    physical=(chain[w],),
                    duration_ns=dev.qubits[chain[w]].readout_length_ns,
                    cx_count=0,
                    error=0.0,
                    label="measure",
                    clbit=g.clbit,
                )
            )
            continue
        if g.kind is GateKind.BARRIER:
            units.append(
                LoweredUnit(
                    kind=g.kind,
                    wires=g.qubits,
                    physical=tuple(chain[w] for w in g.qubits),
                    duration_ns=0.0,
                    cx_count=0,
                    error=0.0,
                    label="barrier",
                )
            )
            continue
        if g.kind in _SINGLE_QUBIT_LOWERING:
            w = g.qubits[0]
            q = chain[w]
            error = (
                0.0 if g.kind is GateKind.RZ else dev.qubits[q].sx_error
            )
            units.append(
                LoweredUnit(
                    kind=g.kind,
                    wires=(w,),
                    physical=(q,),
                    duration_ns=dev.single_qubit_duration(
                        _SINGLE_QUBIT_DURATION_KEY[g.kind]
                    ),
                    cx_count=0,
                    error=error,
                    label=g.kind.value,
                    angle=g.param,
                )
            )
            continue
        if g.kind in (GateKind.ZZ, GateKind.ZZ_SWAP, GateKind.CZ, GateKind.CX):
            w1, w2 = g.qubits
            if abs(w1 - w2) != 1:
                raise NonAdjacentGateError(
                    f"{g.kind.value} on wires {g.qubits} is not nearest-neighbour"
                )
            qa, qb = chain[w1], chain[w2]
            edge = dev.edge_between(qa, qb)
            if edge is None:
                raise MissingEdgeError(f"no device edge between {qa} and {qb}")
            # wires holding the native control/target of this edge
            if edge.control == qa:
                c_wire, t_wire = w1, w2
            else:
                c_wire, t_wire = w2, w1
            if g.kind is GateKind.CX:
                # a directed CX forces the polarity
                polarity = Polarity.CT if g.qubits[0] == c_wire else Polarity.TC
            else:
                polarity = Polarity.CT
            app = apply_rule(g.kind, g.param, c_wire, t_wire, edge, dev, opt, polarity)
            units.append(app.unit(g.qubits, (qa, qb), edge, dev))
            continue
        raise ValidationError(f"no lowering rule for kind {g.kind.value}")

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
