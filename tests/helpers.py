"""Test-side constructions built on the package: dense unitaries of circuits,
phase-insensitive equality, and small conveniences nothing in the package
needs.  Unlike ``oracles``, this module imports ``bqaoa``."""

import json
from pathlib import Path

import numpy as np

from bqaoa import circuit as cir
from bqaoa import qaoa, sim
from bqaoa.circuit import CircuitIR, Gate, GateKind
from bqaoa.errors import BqaoaError, ValidationError


class MeasureInUnitaryError(BqaoaError):
    """A circuit containing measurements was passed to ``unitary_of``."""


def unitary_of(c: CircuitIR) -> np.ndarray:
    """Dense unitary of a measurement-free circuit, little-endian."""
    cir.require_dense(c.num_qubits)
    dim = 2**c.num_qubits
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        if g.kind is GateKind.MEASURE:
            raise MeasureInUnitaryError("circuit contains measurements")
        if g.kind is GateKind.BARRIER:
            continue
        u = cir.apply_gate(u, g, c.num_qubits)
    return u


def gate_product(gates, frame) -> np.ndarray:
    """Product of the gates' matrices, frame[i] being local qubit i."""
    local = {w: i for i, w in enumerate(frame)}
    remapped = tuple(Gate(g.kind, tuple(local[q] for q in g.qubits), g.param)
                     for g in gates)
    return unitary_of(CircuitIR(len(frame), remapped))


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    """|tr(U^dag V)| == dim within tol, the phase-insensitive equality."""
    if u.shape != v.shape:
        return False
    dim = u.shape[0]
    return abs(abs(np.trace(u.conj().T @ v)) - dim) <= tol * dim


def without_measurements(c: CircuitIR) -> CircuitIR:
    kept = tuple(g for g in c.gates if g.kind is not GateKind.MEASURE)
    return CircuitIR(c.num_qubits, kept, num_clbits=0)


def flatten(lowered) -> CircuitIR:
    """Hardware-gate circuit on chain wires (pulse composites kept whole)."""
    gates: list[Gate] = []
    for unit in lowered.units:
        if unit.kind is GateKind.MEASURE:
            gates.append(cir.measure(unit.wires[0], unit.clbit))
        else:
            gates.extend(unit.gates)
    return CircuitIR(len(lowered.chain), tuple(gates), num_clbits=lowered.num_clbits)


def density_from_statevector(psi) -> sim.DensityMatrix:
    psi = np.asarray(psi, dtype=complex)
    n = int(round(np.log2(psi.size)))
    return sim.DensityMatrix(n, np.outer(psi, psi.conj()))


def save_device(dev, path) -> None:
    Path(path).write_text(json.dumps(dev.to_dict(), indent=2) + "\n")


def final_wire_to_logical(c: CircuitIR) -> tuple[int, ...]:
    """Recover the final wire -> logical permutation from the measurements."""
    mapping = c.measure_map()
    if sorted(mapping) != list(range(c.num_qubits)):
        raise ValidationError("circuit does not measure every wire exactly once")
    return tuple(mapping[w] for w in range(c.num_qubits))


def complete_maxcut(n: int) -> qaoa.MaxCutInstance:
    """MaxCut on the complete graph K_n."""
    return qaoa.MaxCutInstance(
        n, frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    )
