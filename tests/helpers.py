"""Test-side constructions built on the package: dense unitaries of circuits,
phase-insensitive equality, the hardware-gate expansion of lowered units,
layered depth, density-matrix validity, standard superoperators of
channels, and small conveniences nothing in the package needs.  Unlike
``oracles``, this module imports ``bqaoa``."""

import math
import warnings
from unittest import mock

import numpy as np
import scipy.linalg

from bqaoa import circuit as cir
from bqaoa import qaoa, sim
from bqaoa.circuit import CircuitIR, Gate, GateKind
from bqaoa.errors import BqaoaError, ValidationError
from bqaoa.lower import Polarity, apply_rule, lower_circuit


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


# --- the hardware-gate expansion of the lowering rules ---


def h_gates(q: int) -> list[Gate]:
    # H = RZ(pi/2) . SX . RZ(pi/2) up to global phase (one timed pulse).
    half_pi = math.pi / 2.0
    return [cir.rz(half_pi, q), cir.sx(q), cir.rz(half_pi, q)]


def reversed_cx(c: int, t: int) -> list[Gate]:
    """CX with control t and target c, via the native CX(c, t)."""
    return h_gates(c) + h_gates(t) + [cir.cx(c, t)] + h_gates(c) + h_gates(t)


def expansion(kind, theta, polarity, pulse, c, t) -> tuple[Gate, ...]:
    """Hardware gates realizing a two-qubit target; c and t hold the edge's
    native control and target.  A pulse form stays one gate of its kind."""
    if pulse:
        return (Gate(kind, (c, t), param=None if kind is GateKind.CZ else theta),)
    tc = polarity is Polarity.TC
    if kind is GateKind.CX:
        gates = reversed_cx(c, t) if tc else [cir.cx(c, t)]
    elif kind is GateKind.ZZ:
        if tc:
            gates = reversed_cx(c, t) + [cir.rz(theta, c)] + reversed_cx(c, t)
        else:
            gates = [cir.cx(c, t), cir.rz(theta, t), cir.cx(c, t)]
    elif kind is GateKind.CZ:
        if tc:
            gates = h_gates(c) + reversed_cx(c, t) + h_gates(c)
        else:
            gates = h_gates(t) + [cir.cx(c, t)] + h_gates(t)
    elif kind is GateKind.ZZ_SWAP:
        # Time order CX(c,t), RZ(t), CX(t,c), CX(c,t) realizes SWAP.ZZ(theta);
        # under TC the roles of the wires exchange.
        if tc:
            gates = reversed_cx(c, t) + [cir.rz(theta, c), cir.cx(c, t)] + reversed_cx(c, t)
        else:
            gates = [cir.cx(c, t), cir.rz(theta, t)] + reversed_cx(c, t) + [cir.cx(c, t)]
    else:
        raise ValidationError(f"no lowering rule for two-qubit kind {kind.value}")
    return tuple(gates)


SINGLE_QUBIT_GATES = {
    GateKind.H: lambda theta, w: tuple(h_gates(w)),
    GateKind.X: lambda theta, w: (cir.x(w),),
    GateKind.SX: lambda theta, w: (cir.sx(w),),
    GateKind.RX: lambda theta, w: (cir.rx(theta, w),),
    GateKind.RY: lambda theta, w: (cir.ry(theta, w),),
    GateKind.RZ: lambda theta, w: (cir.rz(theta, w),),
}


def native_control_wire(unit, dev) -> int:
    """The wire of a two-qubit unit that holds its edge's native control."""
    edge = dev.edge_between(*unit.physical)
    return unit.wires[unit.physical.index(edge.control)]


def unit_gates(unit, dev) -> tuple[Gate, ...]:
    """The hardware gates a lowered unit stands for (none for a measurement)."""
    if unit.kind is GateKind.MEASURE:
        return ()
    if unit.kind is GateKind.BARRIER:
        return (cir.barrier(*unit.wires),)
    if unit.kind in SINGLE_QUBIT_GATES:
        return SINGLE_QUBIT_GATES[unit.kind](unit.angle, unit.wires[0])
    c = native_control_wire(unit, dev)
    t = unit.wires[1] if unit.wires[0] == c else unit.wires[0]
    return expansion(unit.kind, unit.angle, unit.polarity, unit.pulse, c, t)


def sx_counts(kind, polarity) -> tuple[tuple[bool, int], ...]:
    """(on the native control?, count) of the non-virtual single-qubit gates
    of a CX-based form, per side in order of first appearance."""
    counts: dict[int, int] = {}
    for g in expansion(kind, 0.0, polarity, False, 0, 1):
        if g.kind in (GateKind.RZ, GateKind.CX) or len(g.qubits) != 1:
            continue
        counts[g.qubits[0]] = counts.get(g.qubits[0], 0) + 1
    return tuple((wire == 0, count) for wire, count in counts.items())


def flatten(lowered, dev) -> CircuitIR:
    """Hardware-gate circuit on chain wires (pulse composites kept whole)."""
    gates: list[Gate] = []
    for unit in lowered.units:
        if unit.kind is GateKind.MEASURE:
            gates.append(cir.measure(unit.wires[0], unit.clbit))
        else:
            gates.extend(unit_gates(unit, dev))
    return CircuitIR(len(lowered.chain), tuple(gates), num_clbits=lowered.num_clbits)


def two_qubit_unit(target, theta, edge, dev, opt, polarity=Polarity.CT):
    """``apply_rule`` on the frame (0, 1), wire 0 holding the native control."""
    physical = (edge.control, edge.target)
    return apply_rule(target, theta, (0, 1), physical, edge, dev, opt, polarity)


def scored_by_lowering(dev, chains, benchmark, opt):
    """The reference for ``mapper._scored``: lower the whole circuit per
    chain, then read back its fidelity score and schedule duration."""
    rows = []
    for chain in chains:
        lowered = lower_circuit(benchmark, chain, dev, opt)
        score = 1.0
        for unit in lowered.units:
            if unit.kind is GateKind.MEASURE:
                score *= 1.0 - dev.qubits[unit.physical[0]].readout_error
            else:
                score *= 1.0 - unit.error
        rows.append((chain, score, lowered.total_duration_ns))
    return rows


def depth(c: CircuitIR, counted_kinds) -> int:
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


def validate_density(rho: sim.DensityMatrix, tol: float = 1e-10) -> None:
    """Raise unless rho is Hermitian with unit trace to tol and has no
    eigenvalue below -1e-9."""
    data = rho.data
    if not np.allclose(data, data.conj().T, rtol=0.0, atol=tol):
        raise ValidationError("density matrix is not Hermitian")
    if abs(np.trace(data).real - 1.0) > tol:
        raise ValidationError(f"trace is {np.trace(data).real}, not 1")
    eigenvalues = np.linalg.eigvalsh(data)
    if eigenvalues.min() < -1e-9:
        raise ValidationError(f"negative eigenvalue {eigenvalues.min()}")


def density_from_statevector(psi) -> sim.DensityMatrix:
    psi = np.asarray(psi, dtype=complex)
    n = int(round(np.log2(psi.size)))
    return sim.DensityMatrix(n, np.outer(psi, psi.conj()))


def standard_superop(real: np.ndarray) -> np.ndarray:
    """The Liouville superoperator of a channel that ``sim`` gives as its
    real matrix over the operator basis (1 or 2 wires)."""
    dual, basis = sim._REAL_BASIS[int(np.log2(len(real))) // 2]
    return basis @ real @ dual


def depolarized_unitary(u: np.ndarray, lam: float) -> np.ndarray:
    """Superoperator of rho -> (1-lam) U rho U^dag + lam tr(rho) I/d:
    (1-lam) U (x) conj(U) + (lam/d) |vec I><vec I|, whose entries of vec I
    that are 1 sit at the multiples of d + 1."""
    dim = len(u)
    superop = (1.0 - lam) * np.kron(u, np.conj(u))
    superop[:: dim + 1, :: dim + 1] += lam / dim
    return superop


def evolve_applies(lowered, noise) -> int:
    """How many superoperator applies ``sim.evolve`` makes on ``lowered``."""
    with mock.patch.object(sim, "apply_matrix", side_effect=cir.apply_matrix) as apply:
        sim.evolve(lowered, noise)
    return apply.call_count


def uhlmann_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """(tr sqrt(sqrt(a) b sqrt(a)))^2 by ``scipy.linalg.sqrtm``.

    sqrtm of a rank-deficient matrix errs by about sqrt(eps) unless the
    matrix is diagonal, so give a (nearly) pure a in its eigenbasis."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)  # singular
        root = scipy.linalg.sqrtm(a)
        return float(np.trace(scipy.linalg.sqrtm(root @ b @ root)).real ** 2)


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
