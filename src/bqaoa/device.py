"""Bipotent device model: coupling graph, gate flavors and calibration data.

A device file is a JSON calibration snapshot.  Top-level schema::

    {
      "name": str,
      "num_qubits": int,
      "single_qubit_durations_ns": {"rz": 0, "sx": 32, "x": 32},
      "qubits": [{"t1_us": .., "t2_us": .., "sx_error": ..,
                  "readout_error": .., "prob_meas0_prep1": ..,
                  "prob_meas1_prep0": .., "readout_length_ns": ..}, ...],
      "edges": [{"control": int, "target": int, "flavor": "ecr"|"direct",
                 "cx_error": .., "cx_duration_ns": ..,
                 "flavor_source": "paper"|"assumed"}, ...]
    }

Durations are nanoseconds, errors are fractions (0.0083, not 0.83 %).
Edges may additionally carry ``composite_durations_ns`` pinning measured
schedule durations of two-qubit composites (keys ``zz``, ``cz``, ``cz_opt``,
``zz_swap``, ``zz_swap_opt``); the device may carry a ``cr_scale_model``
for pulse-scaled gates.  Both are optional calibration extras consumed by
the lowering rules.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    EmptyDeviceError,
    ParseError,
    ValidationError,
    as_float,
    as_int,
)

DEFAULT_SINGLE_QUBIT_DURATIONS_NS = {
    "rz": 0.0,
    "sx": 32.0,
    "x": 32.0,
    "rx": 32.0,
    "ry": 32.0,
}

#: Consistency tolerance between readout_error and the two prep/meas
#: probabilities (files round to two decimals in percent).
READOUT_CONSISTENCY_TOL = 0.01


class GateFlavor(enum.Enum):
    """The two CX implementations a bipotent device offers."""

    ECR_CX = "ecr"
    DIRECT_CX = "direct"


class QubitClass(enum.Enum):
    """Classification of a qubit by the flavors of its incident edges."""

    Q_ECR = "ecr"
    Q_DIRECT = "direct"
    Q_BIPOTENT = "bipotent"
    ISOLATED = "isolated"


@dataclass(frozen=True)
class CrScaleModel:
    """Affine duration model for pulse-scaled (cross-resonance) ZZ gates.

    duration(theta) = intercept_ns + |theta|/pi * slope_ns_per_pi, capped at
    the default (CX-based) duration of the same gate.  The intercept is the
    single-qubit overhead; the slope is the full-angle CR content.
    """

    intercept_ns: float = 64.0
    slope_ns_per_pi: float = 177.8


@dataclass(frozen=True)
class QubitCalibration:
    """Per-qubit calibration values (times in us, durations in ns)."""

    t1_us: float
    t2_us: float
    sx_error: float
    readout_error: float
    prob_meas0_prep1: float
    prob_meas1_prep0: float
    readout_length_ns: float
    frequency_ghz: float | None = None
    anharmonicity_ghz: float | None = None


@dataclass(frozen=True)
class EdgeCalibration:
    """Per-edge calibration; (control, target) is the hardware-native order."""

    control: int
    target: int
    flavor: GateFlavor
    cx_error: float
    cx_duration_ns: float
    flavor_source: str = "assumed"
    composite_durations_ns: tuple[tuple[str, float], ...] = ()

    @property
    def pair(self) -> tuple[int, int]:
        """Unordered endpoint pair in sorted order."""
        return (min(self.control, self.target), max(self.control, self.target))

    def composite_duration(self, key: str) -> float | None:
        for name, value in self.composite_durations_ns:
            if name == key:
                return value
        return None


@dataclass(frozen=True)
class DeviceModel:
    """Immutable view of one calibration snapshot of a bipotent device."""

    name: str
    num_qubits: int
    qubits: tuple[QubitCalibration, ...]
    edges: tuple[EdgeCalibration, ...]
    single_qubit_durations_ns: tuple[tuple[str, float], ...] = tuple(
        sorted(DEFAULT_SINGLE_QUBIT_DURATIONS_NS.items())
    )
    cr_scale: CrScaleModel = field(default_factory=CrScaleModel)

    def single_qubit_duration(self, kind: str) -> float:
        for name, value in self.single_qubit_durations_ns:
            if name == kind:
                return value
        raise KeyError(f"no duration for single-qubit kind {kind!r}")

    def edge_between(self, a: int, b: int) -> EdgeCalibration | None:
        key = (min(a, b), max(a, b))
        for edge in self.edges:
            if edge.pair == key:
                return edge
        return None

    def incident_edges(self, q: int) -> list[EdgeCalibration]:
        return [e for e in self.edges if q in e.pair]

    def mean_sx_error(self) -> float:
        return math.fsum(q.sx_error for q in self.qubits) / len(self.qubits)

    def mean_cx_error(self) -> float:
        if not self.edges:
            raise EmptyDeviceError("device has no edges")
        return math.fsum(e.cx_error for e in self.edges) / len(self.edges)

    def to_dict(self) -> dict:
        """Serialize back to the device JSON schema."""
        doc: dict = {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "single_qubit_durations_ns": dict(self.single_qubit_durations_ns),
            "cr_scale_model": {
                "intercept_ns": self.cr_scale.intercept_ns,
                "slope_ns_per_pi": self.cr_scale.slope_ns_per_pi,
            },
            "qubits": [],
            "edges": [],
        }
        for q in self.qubits:
            entry = {
                "t1_us": q.t1_us,
                "t2_us": q.t2_us,
                "sx_error": q.sx_error,
                "readout_error": q.readout_error,
                "prob_meas0_prep1": q.prob_meas0_prep1,
                "prob_meas1_prep0": q.prob_meas1_prep0,
                "readout_length_ns": q.readout_length_ns,
            }
            if q.frequency_ghz is not None:
                entry["frequency_ghz"] = q.frequency_ghz
            if q.anharmonicity_ghz is not None:
                entry["anharmonicity_ghz"] = q.anharmonicity_ghz
            doc["qubits"].append(entry)
        for e in self.edges:
            entry = {
                "control": e.control,
                "target": e.target,
                "flavor": e.flavor.value,
                "cx_error": e.cx_error,
                "cx_duration_ns": e.cx_duration_ns,
                "flavor_source": e.flavor_source,
            }
            if e.composite_durations_ns:
                entry["composite_durations_ns"] = dict(e.composite_durations_ns)
            doc["edges"].append(entry)
        return doc


@dataclass(frozen=True)
class FlavorSummary:
    count: int
    mean_cx_error: float
    mean_cx_duration_ns: float


@dataclass(frozen=True)
class ClassSummary:
    count: int
    mean_t1_us: float
    mean_t2_us: float
    mean_sx_error: float
    mean_readout_error: float


@dataclass(frozen=True)
class DeviceSummary:
    """Arithmetic means grouped by edge flavor and qubit class."""

    by_flavor: dict[GateFlavor, FlavorSummary]
    by_class: dict[QubitClass, ClassSummary]
    #: (ecr - direct) / ecr, as percentages; None unless both flavors present.
    cx_error_reduction_pct: float | None
    cx_duration_reduction_pct: float | None


def _require(condition: bool, field_name: str, message: str) -> None:
    if not condition:
        raise ValidationError(f"{field_name}: {message}")


def _probability(value: float, field_name: str) -> float:
    value = as_float(value, field_name)
    _require(0.0 <= value <= 1.0, field_name, f"probability {value} not in [0, 1]")
    return value


def _optional_finite(entry: dict, key: str, prefix: str) -> float | None:
    return as_float(entry[key], f"{prefix}.{key}") if key in entry else None


def _parse_qubit(entry: dict, index: int) -> QubitCalibration:
    prefix = f"qubits[{index}]"
    try:
        t1 = as_float(entry["t1_us"], f"{prefix}.t1_us")
        t2 = as_float(entry["t2_us"], f"{prefix}.t2_us")
        sx_error = _probability(entry["sx_error"], f"{prefix}.sx_error")
        readout_error = _probability(entry["readout_error"], f"{prefix}.readout_error")
        p01 = _probability(entry["prob_meas0_prep1"], f"{prefix}.prob_meas0_prep1")
        p10 = _probability(entry["prob_meas1_prep0"], f"{prefix}.prob_meas1_prep0")
        readout_length = as_float(
            entry["readout_length_ns"], f"{prefix}.readout_length_ns"
        )
    except KeyError as exc:
        raise ValidationError(f"{prefix}: missing field {exc.args[0]!r}") from exc
    _require(t1 > 0, f"{prefix}.t1_us", f"must be positive, got {t1}")
    _require(t2 > 0, f"{prefix}.t2_us", f"must be positive, got {t2}")
    _require(
        readout_length >= 0,
        f"{prefix}.readout_length_ns",
        f"must be non-negative, got {readout_length}",
    )
    _require(
        abs(readout_error - (p01 + p10) / 2.0) <= READOUT_CONSISTENCY_TOL,
        f"{prefix}.readout_error",
        f"{readout_error} not within {READOUT_CONSISTENCY_TOL} of "
        f"mean(prob_meas0_prep1, prob_meas1_prep0) = {(p01 + p10) / 2.0}",
    )
    return QubitCalibration(
        t1_us=t1,
        t2_us=t2,
        sx_error=sx_error,
        readout_error=readout_error,
        prob_meas0_prep1=p01,
        prob_meas1_prep0=p10,
        readout_length_ns=readout_length,
        frequency_ghz=_optional_finite(entry, "frequency_ghz", prefix),
        anharmonicity_ghz=_optional_finite(entry, "anharmonicity_ghz", prefix),
    )


def _parse_edge(entry: dict, index: int, num_qubits: int) -> EdgeCalibration:
    prefix = f"edges[{index}]"
    try:
        control = as_int(entry["control"], f"{prefix}.control")
        target = as_int(entry["target"], f"{prefix}.target")
        flavor_str = entry["flavor"]
        cx_error = as_float(entry["cx_error"], f"{prefix}.cx_error")
        cx_duration = as_float(entry["cx_duration_ns"], f"{prefix}.cx_duration_ns")
    except KeyError as exc:
        raise ValidationError(f"{prefix}: missing field {exc.args[0]!r}") from exc
    try:
        flavor = GateFlavor(flavor_str)
    except ValueError:
        raise ValidationError(
            f"{prefix}.flavor: {flavor_str!r} is not 'ecr' or 'direct'"
        ) from None
    _require(
        control != target, f"{prefix}", f"self-loop on qubit {control}"
    )
    for name, q in (("control", control), ("target", target)):
        _require(
            0 <= q < num_qubits,
            f"{prefix}.{name}",
            f"qubit {q} out of range for {num_qubits}-qubit device",
        )
    _probability(cx_error, f"{prefix}.cx_error")
    _require(cx_error < 1.0, f"{prefix}.cx_error", f"must be < 1, got {cx_error}")
    _require(
        cx_duration > 0,
        f"{prefix}.cx_duration_ns",
        f"must be positive, got {cx_duration}",
    )
    flavor_source = entry.get("flavor_source", "assumed")
    _require(
        flavor_source in ("paper", "assumed"),
        f"{prefix}.flavor_source",
        f"must be 'paper' or 'assumed', got {flavor_source!r}",
    )
    composites = {
        key: as_float(value, f"{prefix}.composite_durations_ns[{key}]")
        for key, value in entry.get("composite_durations_ns", {}).items()
    }
    for key, value in composites.items():
        _require(
            value > 0,
            f"{prefix}.composite_durations_ns[{key}]",
            f"must be positive, got {value}",
        )
    return EdgeCalibration(
        control=control,
        target=target,
        flavor=flavor,
        cx_error=cx_error,
        cx_duration_ns=cx_duration,
        flavor_source=flavor_source,
        composite_durations_ns=tuple(sorted(composites.items())),
    )


def device_from_dict(doc: dict) -> DeviceModel:
    """Build and validate a DeviceModel from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError("device document must be a JSON object")
    try:
        name = str(doc["name"])
        num_qubits = as_int(doc["num_qubits"], "num_qubits")
        qubit_entries = doc["qubits"]
        edge_entries = doc["edges"]
    except KeyError as exc:
        raise ValidationError(f"missing top-level field {exc.args[0]!r}") from exc
    _require(num_qubits > 0, "num_qubits", f"must be positive, got {num_qubits}")
    _require(
        len(qubit_entries) == num_qubits,
        "qubits",
        f"expected {num_qubits} entries, got {len(qubit_entries)}",
    )
    qubits = tuple(_parse_qubit(entry, i) for i, entry in enumerate(qubit_entries))
    edges = tuple(
        _parse_edge(entry, i, num_qubits) for i, entry in enumerate(edge_entries)
    )
    seen: set[tuple[int, int]] = set()
    for i, edge in enumerate(edges):
        _require(
            edge.pair not in seen,
            f"edges[{i}]",
            f"duplicate edge between qubits {edge.pair}",
        )
        seen.add(edge.pair)

    durations = dict(DEFAULT_SINGLE_QUBIT_DURATIONS_NS)
    for key, value in doc.get("single_qubit_durations_ns", {}).items():
        value = as_float(value, f"single_qubit_durations_ns[{key}]")
        _require(
            value >= 0,
            f"single_qubit_durations_ns[{key}]",
            f"must be non-negative, got {value}",
        )
        durations[key] = value
        if key == "sx":
            # rx/ry track sx unless given explicitly.
            for alias in ("rx", "ry"):
                if alias not in doc.get("single_qubit_durations_ns", {}):
                    durations[alias] = value

    scale_doc = doc.get("cr_scale_model", {})
    cr_scale = CrScaleModel(
        intercept_ns=as_float(
            scale_doc.get("intercept_ns", CrScaleModel.intercept_ns),
            "cr_scale_model.intercept_ns",
        ),
        slope_ns_per_pi=as_float(
            scale_doc.get("slope_ns_per_pi", CrScaleModel.slope_ns_per_pi),
            "cr_scale_model.slope_ns_per_pi",
        ),
    )
    return DeviceModel(
        name=name,
        num_qubits=num_qubits,
        qubits=qubits,
        edges=edges,
        single_qubit_durations_ns=tuple(sorted(durations.items())),
        cr_scale=cr_scale,
    )


def load_device(path: str | Path) -> DeviceModel:
    """Load and validate a device JSON file.

    Raises ParseError for malformed files and ValidationError (naming the
    offending field) for invariant violations.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read device file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed device JSON in {path}: {exc}") from exc
    return device_from_dict(doc)


def qubit_class(dev: DeviceModel, q: int) -> QubitClass:
    """Classify qubit q by the flavors of its incident edges."""
    if not 0 <= q < dev.num_qubits:
        raise IndexError(f"qubit {q} out of range for {dev.num_qubits}-qubit device")
    flavors = {e.flavor for e in dev.incident_edges(q)}
    if not flavors:
        return QubitClass.ISOLATED
    if flavors == {GateFlavor.ECR_CX}:
        return QubitClass.Q_ECR
    if flavors == {GateFlavor.DIRECT_CX}:
        return QubitClass.Q_DIRECT
    return QubitClass.Q_BIPOTENT


def summarize(dev: DeviceModel) -> DeviceSummary:
    """Arithmetic means of calibration data per gate flavor and qubit class."""
    if dev.num_qubits == 0 or not dev.qubits:
        raise EmptyDeviceError("cannot summarize an empty device")

    by_flavor: dict[GateFlavor, FlavorSummary] = {}
    for flavor in GateFlavor:
        members = [e for e in dev.edges if e.flavor is flavor]
        if not members:
            continue
        by_flavor[flavor] = FlavorSummary(
            count=len(members),
            mean_cx_error=math.fsum(e.cx_error for e in members) / len(members),
            mean_cx_duration_ns=math.fsum(e.cx_duration_ns for e in members)
            / len(members),
        )

    by_class: dict[QubitClass, ClassSummary] = {}
    for cls in QubitClass:
        members = [
            q for i, q in enumerate(dev.qubits) if qubit_class(dev, i) is cls
        ]
        if not members:
            continue
        by_class[cls] = ClassSummary(
            count=len(members),
            mean_t1_us=math.fsum(q.t1_us for q in members) / len(members),
            mean_t2_us=math.fsum(q.t2_us for q in members) / len(members),
            mean_sx_error=math.fsum(q.sx_error for q in members) / len(members),
            mean_readout_error=math.fsum(q.readout_error for q in members)
            / len(members),
        )

    error_reduction = duration_reduction = None
    if GateFlavor.ECR_CX in by_flavor and GateFlavor.DIRECT_CX in by_flavor:
        ecr = by_flavor[GateFlavor.ECR_CX]
        direct = by_flavor[GateFlavor.DIRECT_CX]
        if ecr.mean_cx_error > 0:
            error_reduction = (
                100.0 * (ecr.mean_cx_error - direct.mean_cx_error) / ecr.mean_cx_error
            )
        duration_reduction = (
            100.0
            * (ecr.mean_cx_duration_ns - direct.mean_cx_duration_ns)
            / ecr.mean_cx_duration_ns
        )

    return DeviceSummary(
        by_flavor=by_flavor,
        by_class=by_class,
        cx_error_reduction_pct=error_reduction,
        cx_duration_reduction_pct=duration_reduction,
    )
