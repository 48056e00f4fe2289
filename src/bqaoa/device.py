"""Bipotent device model: coupling graph, gate flavors and calibration data.

A device file is a JSON calibration snapshot.  The loader reads these keys
(``p`` is a probability in [0, 1]; durations are in ns)::

    {
      "name": str,
      "num_qubits": int > 0,
      "single_qubit_durations_ns": {"rz"|"sx"|"x"|"rx"|"ry": >= 0},
      "cr_scale_model": {"intercept_ns": >= 0, "slope_ns_per_pi": >= 0},
      "qubits": [{"t1_us": > 0, "t2_us": > 0, "sx_error": p,
                  "readout_error": p, "prob_meas0_prep1": p,
                  "prob_meas1_prep0": p, "readout_length_ns": >= 0,
                  "frequency_ghz": number, "anharmonicity_ghz": number}, ...],
      "edges": [{"control": int, "target": int, "flavor": "ecr"|"direct",
                 "cx_error": p < 1, "cx_duration_ns": > 0,
                 "flavor_source": "paper"|"assumed",
                 "composite_durations_ns":
                     {"zz"|"cz"|"cz_opt"|"zz_swap"|"zz_swap_opt": > 0}}, ...]
    }

Errors are fractions (0.0083, not 0.83 %).  Numbers must be finite, and a
boolean is not a number.  No duration exceeds ``MAX_DURATION_NS``.
Optional: the two top-level duration objects
(over ``DEFAULT_SINGLE_QUBIT_DURATIONS_NS``, where a given ``sx`` also sets
``rx`` and ``ry`` unless they are given, and over ``CrScaleModel``), the
qubit frequencies, ``flavor_source`` (default "assumed") and the composite
pins, which the lowering rules prefer to their formulas.  A missing key, a
key not shown here or a bad value raises ``ValidationError`` naming the
field, as do a self-loop, a duplicate edge, an endpoint out of range and a
``readout_error`` further than ``READOUT_CONSISTENCY_TOL`` from the mean of
the two prep/meas probabilities.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InfeasibleError, ValidationError, as_float, as_int, as_list, as_object

DEFAULT_SINGLE_QUBIT_DURATIONS_NS = {
    "rz": 0.0, "sx": 32.0, "x": 32.0, "rx": 32.0, "ry": 32.0,
}

#: Keys an edge's ``composite_durations_ns`` may pin; each names a
#: duration the lowering rules read.
COMPOSITE_PIN_KEYS = ("zz", "cz", "cz_opt", "zz_swap", "zz_swap_opt")

#: The longest duration a document may give: 1e12 ns is 1,000 s, far beyond
#: any T1, and a schedule total of such durations stays finite.  An infinite
#: total printed as Infinity, and times a noise scale of 0 it made NaN.
MAX_DURATION_NS = 1e12

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
    #: sorted endpoint pair -> first edge on it, for ``edge_between``
    _edges_by_pair: dict = field(init=False, repr=False, compare=False, hash=False)
    #: single-qubit kind -> duration, for ``single_qubit_duration``
    _durations: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        index: dict[tuple[int, int], EdgeCalibration] = {}
        for edge in self.edges:
            index.setdefault(edge.pair, edge)
        object.__setattr__(self, "_edges_by_pair", index)
        # reversed, so the first duration given for a kind wins
        durations = dict(reversed(self.single_qubit_durations_ns))
        object.__setattr__(self, "_durations", durations)

    def single_qubit_duration(self, kind: str) -> float:
        return self._durations[kind]

    def edge_between(self, a: int, b: int) -> EdgeCalibration | None:
        return self._edges_by_pair.get((min(a, b), max(a, b)))

    def incident_edges(self, q: int) -> list[EdgeCalibration]:
        return [e for e in self.edges if q in e.pair]

    def mean_sx_error(self) -> float:
        return math.fsum(q.sx_error for q in self.qubits) / len(self.qubits)

    def mean_cx_error(self) -> float:
        if not self.edges:
            raise InfeasibleError("device has no edges")
        return math.fsum(e.cx_error for e in self.edges) / len(self.edges)


def _require(condition: bool, field_name: str, message: str) -> None:
    if not condition:
        raise ValidationError(f"{field_name}: {message}")


def _positive(value, field_name: str) -> float:
    value = as_float(value, field_name)
    _require(value > 0, field_name, f"must be positive, got {value}")
    return value


def _non_negative(value, field_name: str) -> float:
    value = as_float(value, field_name)
    _require(value >= 0, field_name, f"must be non-negative, got {value}")
    return value


def _duration(check):
    """``check`` of a duration in ns, which also refuses one above
    ``MAX_DURATION_NS``."""
    def bounded(value, field_name: str) -> float:
        value = check(value, field_name)
        _require(value <= MAX_DURATION_NS, field_name,
                 f"duration {value} ns exceeds {MAX_DURATION_NS:g} ns")
        return value
    return bounded


def _probability(value, field_name: str) -> float:
    value = as_float(value, field_name)
    _require(0.0 <= value <= 1.0, field_name, f"probability {value} not in [0, 1]")
    return value


def _flavor(value, field_name: str) -> GateFlavor:
    try:
        return GateFlavor(value)
    except ValueError:
        message = f"{field_name}: {value!r} is not 'ecr' or 'direct'"
        raise ValidationError(message) from None


#: Required keys of a qubit entry, each with the check that coerces it.
_QUBIT_FIELDS = {
    "t1_us": _positive,
    "t2_us": _positive,
    "sx_error": _probability,
    "readout_error": _probability,
    "prob_meas0_prep1": _probability,
    "prob_meas1_prep0": _probability,
    "readout_length_ns": _duration(_non_negative),
}

#: Optional keys of a qubit entry: numbers that are checked, not kept.
_QUBIT_INFO = ("frequency_ghz", "anharmonicity_ghz")

#: Required keys of an edge entry, each with the check that coerces it.
_EDGE_FIELDS = {
    "control": as_int,
    "target": as_int,
    "flavor": _flavor,
    "cx_error": _probability,
    "cx_duration_ns": _duration(_positive),
}


def _fields(entry, prefix: str, table: dict, optional: tuple) -> dict:
    """The table's keys of one document object, each coerced by its check;
    a key in neither the table nor ``optional`` is refused."""
    entry = as_object(entry, prefix, (*table, *optional))
    values = {}
    for key, check in table.items():
        if key not in entry:
            raise ValidationError(f"{prefix}: missing field {key!r}")
        values[key] = check(entry[key], f"{prefix}.{key}")
    return values


def _durations(doc, field_name: str, keys, check) -> dict[str, float]:
    """A map of named durations, each key one of ``keys``."""
    values = {}
    for key, value in as_object(doc, field_name).items():
        item = f"{field_name}[{key}]"
        _require(key in keys, item, f"unknown key, expected one of {', '.join(keys)}")
        values[key] = check(value, item)
    return values


def _parse_qubit(entry, index: int) -> QubitCalibration:
    prefix = f"qubits[{index}]"
    fields = _fields(entry, prefix, _QUBIT_FIELDS, _QUBIT_INFO)
    readout_error = fields["readout_error"]
    mean = (fields["prob_meas0_prep1"] + fields["prob_meas1_prep0"]) / 2.0
    _require(
        abs(readout_error - mean) <= READOUT_CONSISTENCY_TOL,
        f"{prefix}.readout_error",
        f"{readout_error} not within {READOUT_CONSISTENCY_TOL} of "
        f"mean(prob_meas0_prep1, prob_meas1_prep0) = {mean}",
    )
    for key in _QUBIT_INFO:
        if key in entry:
            as_float(entry[key], f"{prefix}.{key}")
    return QubitCalibration(**fields)


def _parse_edge(entry, index: int, num_qubits: int) -> EdgeCalibration:
    prefix = f"edges[{index}]"
    fields = _fields(
        entry, prefix, _EDGE_FIELDS, ("flavor_source", "composite_durations_ns")
    )
    control, target, cx_error = fields["control"], fields["target"], fields["cx_error"]
    _require(control != target, prefix, f"self-loop on qubit {control}")
    for name, q in (("control", control), ("target", target)):
        _require(
            0 <= q < num_qubits,
            f"{prefix}.{name}",
            f"qubit {q} out of range for {num_qubits}-qubit device",
        )
    _require(cx_error < 1.0, f"{prefix}.cx_error", f"must be < 1, got {cx_error}")
    flavor_source = entry.get("flavor_source", "assumed")
    _require(
        flavor_source in ("paper", "assumed"),
        f"{prefix}.flavor_source",
        f"must be 'paper' or 'assumed', got {flavor_source!r}",
    )
    pins = _durations(
        entry.get("composite_durations_ns", {}),
        f"{prefix}.composite_durations_ns",
        COMPOSITE_PIN_KEYS,
        _duration(_positive),
    )
    return EdgeCalibration(
        **fields,
        flavor_source=flavor_source,
        composite_durations_ns=tuple(sorted(pins.items())),
    )


def device_from_dict(doc: dict) -> DeviceModel:
    """Build and validate a DeviceModel from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ValidationError("device document must be a JSON object")
    as_object(doc, "", ("name", "num_qubits", "single_qubit_durations_ns",
                        "cr_scale_model", "qubits", "edges"))
    try:
        name = doc["name"]
        num_qubits = as_int(doc["num_qubits"], "num_qubits")
        qubit_entries = as_list(doc["qubits"], "qubits")
        edge_entries = as_list(doc["edges"], "edges")
    except KeyError as exc:
        raise ValidationError(f"missing top-level field {exc.args[0]!r}") from exc
    _require(isinstance(name, str), "name", f"expected a string, got {name!r}")
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

    given = _durations(
        doc.get("single_qubit_durations_ns", {}),
        "single_qubit_durations_ns",
        DEFAULT_SINGLE_QUBIT_DURATIONS_NS,
        _duration(_non_negative),
    )
    durations = dict(DEFAULT_SINGLE_QUBIT_DURATIONS_NS)
    if "sx" in given:
        # rx/ry track sx unless given explicitly.
        durations |= {"rx": given["sx"], "ry": given["sx"]}
    durations |= given

    scale_keys = ("intercept_ns", "slope_ns_per_pi")
    scale_doc = as_object(doc.get("cr_scale_model", {}), "cr_scale_model", scale_keys)
    scale = {
        key: _duration(_non_negative)(
            scale_doc.get(key, getattr(CrScaleModel, key)), f"cr_scale_model.{key}"
        )
        for key in scale_keys
    }
    return DeviceModel(
        name=name,
        num_qubits=num_qubits,
        qubits=qubits,
        edges=edges,
        single_qubit_durations_ns=tuple(sorted(durations.items())),
        cr_scale=CrScaleModel(**scale),
    )


def load_device(path: str | Path) -> DeviceModel:
    """Load and validate a device JSON file.

    Raises ValidationError for a file that cannot be read or parsed, and
    for invariant violations, naming the offending field.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeError) as exc:
        raise ValidationError(f"cannot read device file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also a number too long to convert
        raise ValidationError(f"malformed device JSON in {path}: {exc}") from exc
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


def _group_means(items, groups, kinds, keys: tuple[str, ...]) -> dict:
    """Per kind with members, in enum order and keyed by its value: the
    member count and the arithmetic mean of each key, as ``mean_<key>``."""
    table = {}
    for kind in kinds:
        members = [item for item, group in zip(items, groups) if group is kind]
        if members:
            count = len(members)
            table[kind.value] = {"count": count} | {
                f"mean_{key}": math.fsum(getattr(m, key) for m in members) / count
                for key in keys
            }
    return table


def summarize(dev: DeviceModel) -> dict:
    """Arithmetic means of calibration data per gate flavor and qubit class,
    as ``device summarize`` prints them.

    The reductions are (ecr - direct) / ecr of the flavor means in percent,
    or None unless both flavors are present and the ecr mean is positive.
    """
    if dev.num_qubits == 0 or not dev.qubits:
        raise InfeasibleError("cannot summarize an empty device")
    classes = [qubit_class(dev, i) for i in range(len(dev.qubits))]
    by_flavor = _group_means(
        dev.edges, [e.flavor for e in dev.edges], GateFlavor,
        ("cx_error", "cx_duration_ns"),
    )
    summary = {
        "by_flavor": by_flavor,
        "by_class": _group_means(
            dev.qubits, classes, QubitClass,
            ("t1_us", "t2_us", "sx_error", "readout_error"),
        ),
    }
    ecr, direct = by_flavor.get("ecr"), by_flavor.get("direct")
    pairs = (("cx_error", "mean_cx_error"), ("cx_duration", "mean_cx_duration_ns"))
    for name, key in pairs:
        reduction = None
        if ecr and direct and ecr[key] > 0:
            reduction = 100.0 * (ecr[key] - direct[key]) / ecr[key]
        summary[f"{name}_reduction_pct"] = reduction
    return summary
