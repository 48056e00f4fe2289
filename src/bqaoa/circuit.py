"""Circuit IR, layered depth, ASAP start times and dense unitaries.

Conventions (used everywhere in this package):

* Qubit 0 is the least-significant bit of a basis-state index
  (little-endian), which indexes every outcome vector; the CLI prints
  bitstrings with qubit 0 rightmost.
* RZ(phi) = diag(e^{-i phi/2}, e^{+i phi/2}); RX/RY are exp(-i theta P / 2).
* ZZ(theta) = exp(-i (theta/2) Z (x) Z); ZZ_SWAP(theta) = SWAP . ZZ(theta).
* Equivalence checks elsewhere ignore global phase.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import TooLargeError, ValidationError

MAX_DENSE_QUBITS = 10


class GateKind(enum.Enum):
    H = "h"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    SX = "sx"
    X = "x"
    CX = "cx"
    CZ = "cz"
    ZZ = "zz"
    ZZ_SWAP = "zz_swap"
    SWAP = "swap"
    MEASURE = "measure"
    BARRIER = "barrier"


TWO_QUBIT_KINDS = {
    GateKind.CX,
    GateKind.CZ,
    GateKind.ZZ,
    GateKind.ZZ_SWAP,
    GateKind.SWAP,
}
PARAM_KINDS = {GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.ZZ, GateKind.ZZ_SWAP}


@dataclass(frozen=True)
class Gate:
    """One gate; two-qubit kinds use qubits[0] as control where directed.

    Durations are not a gate property: lowering assigns them per unit.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    param: float | None = None
    clbit: int | None = None

    def __post_init__(self) -> None:
        if self.kind in TWO_QUBIT_KINDS:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValidationError(
                    f"{self.kind.value}: needs two distinct qubits, got {self.qubits}"
                )
        elif self.kind is GateKind.BARRIER:
            if not self.qubits:
                raise ValidationError("barrier: needs at least one qubit")
        elif len(self.qubits) != 1:
            raise ValidationError(
                f"{self.kind.value}: needs exactly one qubit, got {self.qubits}"
            )
        if self.kind in PARAM_KINDS:
            if self.param is None or not math.isfinite(self.param):
                raise ValidationError(
                    f"{self.kind.value}: needs a finite angle, got {self.param}"
                )
        if self.kind is GateKind.MEASURE and self.clbit is None:
            raise ValidationError("measure: needs a classical bit index")


def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def sx(q: int) -> Gate:
    return Gate(GateKind.SX, (q,))


def rx(theta: float, q: int) -> Gate:
    return Gate(GateKind.RX, (q,), param=theta)


def ry(theta: float, q: int) -> Gate:
    return Gate(GateKind.RY, (q,), param=theta)


def rz(phi: float, q: int) -> Gate:
    return Gate(GateKind.RZ, (q,), param=phi)


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CX, (control, target))


def cz(a: int, b: int) -> Gate:
    return Gate(GateKind.CZ, (a, b))


def swap(a: int, b: int) -> Gate:
    return Gate(GateKind.SWAP, (a, b))


def zz(theta: float, a: int, b: int) -> Gate:
    return Gate(GateKind.ZZ, (a, b), param=theta)


def zz_swap(theta: float, a: int, b: int) -> Gate:
    return Gate(GateKind.ZZ_SWAP, (a, b), param=theta)


def measure(q: int, clbit: int) -> Gate:
    return Gate(GateKind.MEASURE, (q,), clbit=clbit)


def barrier(*qubits: int) -> Gate:
    return Gate(GateKind.BARRIER, tuple(qubits))


@dataclass(frozen=True)
class CircuitIR:
    """An ordered gate list over num_qubits wires and num_clbits bits."""

    num_qubits: int
    gates: tuple[Gate, ...]
    num_clbits: int = 0

    def __post_init__(self) -> None:
        seen_clbits: set[int] = set()
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValidationError(
                        f"gate {g.kind.value} on qubit {q} outside 0..{self.num_qubits - 1}"
                    )
            if g.kind is GateKind.MEASURE:
                if not 0 <= g.clbit < self.num_clbits:
                    raise ValidationError(
                        f"measure clbit {g.clbit} outside 0..{self.num_clbits - 1}"
                    )
                if g.clbit in seen_clbits:
                    raise ValidationError(f"measure clbit {g.clbit} used twice")
                seen_clbits.add(g.clbit)

    def measure_map(self) -> dict[int, int]:
        """wire -> classical bit, from the measurement gates."""
        return {
            g.qubits[0]: g.clbit for g in self.gates if g.kind is GateKind.MEASURE
        }


def depth(c: CircuitIR, counted_kinds: Iterable[GateKind]) -> int:
    """Layered depth over the counted kinds; barriers force boundaries.

    A barrier synchronises its qubits' layer counters without counting
    itself; gates of uncounted kinds are invisible.
    """
    counted = set(counted_kinds)
    level = [0] * c.num_qubits
    best = 0
    for g in c.gates:
        if g.kind is GateKind.BARRIER:
            sync = max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = sync
            continue
        if g.kind not in counted:
            continue
        layer = 1 + max(level[q] for q in g.qubits)
        for q in g.qubits:
            level[q] = layer
        best = max(best, layer)
    return best


def asap_start_times(
    items: Sequence[tuple[tuple[int, ...], float]], num_qubits: int
) -> tuple[list[float], float]:
    """Earliest start per item given (qubits, duration) in program order."""
    free = [0.0] * num_qubits
    starts: list[float] = []
    total = 0.0
    for qubits, duration in items:
        t0 = max((free[q] for q in qubits), default=0.0)
        starts.append(t0)
        end = t0 + duration
        for q in qubits:
            free[q] = end
        total = max(total, end)
    return starts, total


# --- dense matrices ---

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def local_matrix(kind: GateKind, param: float | None = None) -> np.ndarray:
    """Gate matrix in the gate's local space; qubits[0] is the local LSB."""
    if kind is GateKind.H:
        return np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2
    if kind is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind is GateKind.SX:
        return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
    if kind is GateKind.RX:
        ch, sh = math.cos(param / 2), math.sin(param / 2)
        return np.array([[ch, -1j * sh], [-1j * sh, ch]], dtype=complex)
    if kind is GateKind.RY:
        ch, sh = math.cos(param / 2), math.sin(param / 2)
        return np.array([[ch, -sh], [sh, ch]], dtype=complex)
    if kind is GateKind.RZ:
        return np.array(
            [[np.exp(-0.5j * param), 0], [0, np.exp(0.5j * param)]], dtype=complex
        )
    if kind is GateKind.CX:
        # local index = control + 2 * target
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[2, 2] = 1
        m[3, 1] = m[1, 3] = 1
        return m
    if kind is GateKind.CZ:
        return np.diag([1, 1, 1, -1]).astype(complex)
    if kind is GateKind.SWAP:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 1
        m[1, 2] = m[2, 1] = 1
        return m
    if kind is GateKind.ZZ:
        e_minus, e_plus = np.exp(-0.5j * param), np.exp(0.5j * param)
        return np.diag([e_minus, e_plus, e_plus, e_minus]).astype(complex)
    if kind is GateKind.ZZ_SWAP:
        return local_matrix(GateKind.SWAP) @ local_matrix(GateKind.ZZ, param)
    raise ValidationError(f"{kind.value} has no unitary matrix")


def apply_matrix(
    array: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Apply a 2^k x 2^k matrix on the ket index of a (2^n,) or (2^n, m) array.

    qubits[0] is the least-significant bit of the matrix's local index.
    """
    k = len(qubits)
    original_shape = array.shape
    t = array.reshape((2,) * num_qubits + (-1,))
    # Axis of qubit q is num_qubits-1-q; the local matrix reshapes with its
    # most-significant bit (qubits[k-1]) first.
    mat_t = mat.reshape((2,) * (2 * k))
    tensor_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    res = np.tensordot(mat_t, t, axes=(list(range(k, 2 * k)), tensor_axes))
    res = np.moveaxis(res, list(range(k)), tensor_axes)
    return np.ascontiguousarray(res.reshape(original_shape))


def apply_gate(array: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply a gate to the ket index of a (2^n,) vector or (2^n, m) matrix."""
    mat = local_matrix(gate.kind, gate.param)
    return apply_matrix(array, mat, gate.qubits, num_qubits)


def require_dense(num_qubits: int) -> None:
    """Refuse sizes beyond the dense state-vector and unitary limit."""
    if num_qubits > MAX_DENSE_QUBITS:
        raise TooLargeError(
            f"{num_qubits} qubits exceeds dense limit {MAX_DENSE_QUBITS}"
        )


def statevector(c: CircuitIR, initial: np.ndarray | None = None) -> np.ndarray:
    """State after the circuit from |0...0> (measurements are ignored)."""
    require_dense(c.num_qubits)
    if initial is None:
        state = np.zeros(2**c.num_qubits, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(initial, dtype=complex).copy()
    for g in c.gates:
        if g.kind in (GateKind.MEASURE, GateKind.BARRIER):
            continue
        state = apply_gate(state, g, c.num_qubits)
    return state


def to_text(c: CircuitIR) -> str:
    """Deterministic one-gate-per-line dump (golden-file format).

    Line format: ``KIND q0[,q1] [theta=<radians>]``; for MEASURE the second
    index is the classical bit.  Bitstrings read qubit 0 rightmost.
    """
    lines = [f"# qubits={c.num_qubits} clbits={c.num_clbits} bit-order=q0-rightmost"]
    for g in c.gates:
        if g.kind is GateKind.MEASURE:
            lines.append(f"MEASURE {g.qubits[0]},{g.clbit}")
            continue
        qubits = ",".join(str(q) for q in g.qubits)
        if g.param is not None:
            lines.append(f"{g.kind.value.upper()} {qubits} theta={g.param!r}")
        else:
            lines.append(f"{g.kind.value.upper()} {qubits}")
    return "\n".join(lines) + "\n"
