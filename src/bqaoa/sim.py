"""Density-matrix simulation under calibration-derived noise.

Noise model per scheduled unit: the unit's unitary, then a depolarizing
channel whose average gate infidelity equals the unit's effective error,
then thermal relaxation for the unit's duration.  A unit's channel depends
on the unit alone.  Idle time is separate: a wire that idled since it was
last busy relaxes for that time before its next unit.  A global scale
factor s multiplies the depolarizing infidelity and the relaxation rates
and interpolates the readout confusion matrices; s = 0 is noiseless.  The
model reads the chain's own ``QubitCalibration`` records.

Every channel is a plain array, its Liouville superoperator: the 4^k x 4^k
matrix sum_K K (x) conj(K) on k qubits, acting on the row-major vec(rho)
whose entry i*d + j is rho[i, j], with local qubit 0 the least-significant
bit of i and j.  ``unit_channel`` builds each scheduled unit as one product
of closed-form pieces.  ``evolve`` folds one-qubit work, idle relaxation
included, into the next two-qubit superoperator on its wire, and what
follows a wire's last two-qubit unit into that unit.  It holds rho in real
coordinates over the Hermitian basis |0><0|, X, Y, |1><1| of each wire: a
channel maps Hermitian operators to Hermitian operators, so its matrix in
that basis is real, and each apply multiplies a real matrix into a real
vector.  Wire q's coordinate sits on bits 2q, 2q+1, so a superoperator on
neighbouring wires acts on one contiguous block of four bits, which
``apply_matrix`` applies by a reshape and one matmul.  rho becomes the
standard complex 2^n x 2^n array once, at the end.  QPT
repeats a channel with a matrix power and reads its Choi matrix off by
reshuffling (Wood, Biamonte & Cory, arXiv:1111.6950); the ideal side's
Choi state is pure, so its fidelity is one inner product.

The pieces: the unit's unitary is ``local_matrix`` of its kind and angle,
not the product of its lowered gates: lowering is exact up to a global
phase e^{ia}, and U (x) conj(U) cancels it.  With the depolarizing channel
it reads (1-lam) U (x) conj(U) + (lam/d) |vec I><vec I|.  Relaxation of one
qubit over time t moves the excited population 1 - e^{-t/T1} to |0> and
scales the coherences by e^{-t/min(T2, 2 T1)}; the relaxations of a unit's
wires join into one superoperator by an outer product.

Outcome distributions and counts are vectors indexed by the little-endian
basis integer: qubit (or classical bit) 0 is bit 0 of the index.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import (
    CircuitIR, GateKind, apply_matrix, local_matrix, require_dense, statevector,
)
from .device import DeviceModel, EdgeCalibration, QubitCalibration
from .errors import InfeasibleError, ValidationError
from .lower import (
    LoweredCircuit, LoweredUnit, OptLevel, Polarity, apply_rule, uses_pulse,
)


@dataclass
class DensityMatrix:
    """A 2^n x 2^n density operator."""

    n: int
    data: np.ndarray

    def probabilities(self) -> np.ndarray:
        p = np.clip(np.real(np.diag(self.data)), 0.0, None)
        total = p.sum()
        return p / total if total > 0 else p


# --- channels as Liouville superoperators ---


def depolarized_unitary(u: np.ndarray, lam: float) -> np.ndarray:
    """Superoperator of rho -> (1-lam) U rho U^dag + lam tr(rho) I/d.

    (1-lam) U (x) conj(U) + (lam/d) |vec I><vec I|; the entries of vec I
    that are 1 sit at the multiples of d + 1.
    """
    dim = u.shape[0]
    # np.kron(u, conj(u)) without its generic-shape overhead
    kron = np.multiply.outer(u, u.conj()).transpose(0, 2, 1, 3).reshape(dim * dim, -1)
    superop = (1.0 - lam) * kron
    superop[:: dim + 1, :: dim + 1] += lam / dim
    return superop


def relaxation_superop(duration_ns: float, t1_us: float, t2_us: float) -> np.ndarray:
    """Amplitude damping and dephasing of one qubit over ``duration_ns``.

    The excited population decays as e^{-t/T1} into |0> and the coherences
    as e^{-t/T2}; a T2 above its physical bound 2 T1 counts as 2 T1.
    """
    t = duration_ns * 1e-3  # us
    decay = 1.0 - math.exp(-t / t1_us)
    coherence = math.exp(-t / min(t2_us, 2.0 * t1_us))
    # over vec(rho) = (rho00, rho01, rho10, rho11)
    superop = np.zeros((4, 4), dtype=complex)
    superop[0, 0], superop[3, 3], superop[0, 3] = 1.0, 1.0 - decay, decay
    superop[1, 1] = superop[2, 2] = coherence
    return superop


# --- calibration-derived noise model ---


def check_noise_scale(scale: float) -> None:
    if not (math.isfinite(scale) and scale >= 0):
        raise ValidationError(f"noise scale {scale} must be finite and >= 0")


@dataclass(frozen=True)
class NoiseModel:
    """Noise parameters for the qubits a circuit actually runs on."""

    qubits: tuple[QubitCalibration, ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        check_noise_scale(self.scale)

    @classmethod
    def from_device(
        cls, dev: DeviceModel, physical_qubits, scale: float = 1.0
    ) -> "NoiseModel":
        qubits = tuple(dev.qubits[q] for q in physical_qubits)
        for q, cal in zip(physical_qubits, qubits):
            if cal.t2_us > 2.0 * cal.t1_us:
                warnings.warn(
                    f"qubit {q}: T2={cal.t2_us} exceeds 2*T1={2 * cal.t1_us}; clamping",
                    stacklevel=2,
                )
        return cls(qubits=qubits, scale=scale)

    def depolarizing_strength(self, error: float, k: int) -> float:
        dim = 2**k
        lam = self.scale * error * dim / (dim - 1)
        return min(1.0, max(0.0, lam))

    def relaxation(self, position: int, duration_ns: float) -> np.ndarray:
        """Relaxation superoperator of one qubit, its time scaled."""
        cal = self.qubits[position]
        return relaxation_superop(duration_ns * self.scale, cal.t1_us, cal.t2_us)

    def scaled_confusion(self, position: int) -> np.ndarray:
        """Confusion matrix[measured][true] interpolated/extrapolated by the
        noise scale, as long as no scaled flip probability exceeds 1."""
        cal = self.qubits[position]
        p01, p10 = cal.prob_meas0_prep1, cal.prob_meas1_prep0
        flips = np.array([[1.0 - p10, p01], [p10, 1.0 - p01]]) - np.eye(2)
        if self.scale * flips.max() > 1:
            raise ValidationError(
                f"noise scale {self.scale} pushes the readout flip probability"
                f" of wire {position} past 1"
            )
        m = np.eye(2) + self.scale * flips
        return m / m.sum(axis=0)

    def confusion_matrices(self) -> list[np.ndarray]:
        return [self.scaled_confusion(i) for i in range(len(self.qubits))]


def _per_wire(superops: list[np.ndarray]) -> np.ndarray:
    """One-qubit superoperators, the i-th on local qubit i, as one on all.

    vec(rho) of two qubits orders its index bits (i1, i0, j1, j0); each 4x4
    reshapes to (i', j', i, j), and the outer product interleaves them.
    """
    if len(superops) == 1:
        return superops[0]
    a0, a1 = (s.reshape(2, 2, 2, 2) for s in superops)
    return np.multiply.outer(a1, a0).transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(16, 16)


def unit_channel(unit: LoweredUnit, noise: NoiseModel) -> np.ndarray:
    """Superoperator of one scheduled unit on its wires (local qubit i = wires[i]).

    The unit's unitary ``local_matrix(kind, angle)`` with a depolarizing
    channel for its effective error, then relaxation for the unit's own
    duration.  A measurement has no unitary and no error, so it only
    relaxes.  It depends on the unit alone, not on where the schedule puts
    it: idle time before the unit is ``evolve``'s per-wire work.
    """
    channel = _per_wire([noise.relaxation(w, unit.duration_ns) for w in unit.wires])
    if unit.kind is not GateKind.MEASURE:
        u = local_matrix(unit.kind, unit.angle)
        lam = noise.depolarizing_strength(unit.error, len(unit.wires))
        channel = channel @ depolarized_unitary(u, lam)
    return channel


_IDENTITY = np.eye(4, dtype=complex)

# One wire's basis |0><0|, X, Y, |1><1| as columns over vec(rho), and its dual
# (the inverse, as G^dag G = diag(1, 2, 2, 1)).  The basis operators are
# Hermitian, so every channel's dual @ superop @ basis is real.  On two wires
# _per_wire interleaves the digits' bits; _GROUPED orders them d0 + 4 d1.
_G = np.array([[1, 0, 0, 0], [0, 1, -1j, 0], [0, 1, 1j, 0], [0, 0, 0, 1]])
_G_DUAL = np.array([[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5j, -0.5j, 0], [0, 0, 0, 1]])
_GROUPED = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)
_REAL_BASIS = {  # number of wires -> (dual, basis)
    1: (_G_DUAL, _G),
    2: (_per_wire([_G_DUAL] * 2)[_GROUPED], _per_wire([_G] * 2)[:, _GROUPED]),
}


def evolve(sc: LoweredCircuit, noise: NoiseModel) -> DensityMatrix:
    """Run a lowered circuit's schedule as a density-matrix evolution from |0..0>.

    Each unit's ``unit_channel`` acts once, in program order on its wires.
    A wire that idled since it was last busy first relaxes for that time.
    One-qubit work, idle relaxation included, multiplies into a pending 4x4
    per wire, which the next two-qubit unit on the wire takes into its
    superoperator (an identity stands in on a wire with none); what follows
    a wire's last two-qubit unit joins that unit from the left.  So each
    two-qubit unit is one apply, in program order, and only a wire with none
    has a 4x4 apply; a barrier only relaxes its idle wires.  Work on other
    wires commutes, so only rounding differs from one apply per unit.
    Measurement units only relax (readout noise is applied at sampling
    time).  Deterministic.  rho is held as 4^n real coordinates, wire w's
    digit (2 row + col) on bits 2w, 2w+1, and each superoperator acts as
    its real matrix dual @ superop @ basis; the diagonal stays exactly real.
    """
    n = sc.num_qubits
    require_dense(n)
    if len(noise.qubits) != n:
        raise ValidationError(
            f"noise model covers {len(noise.qubits)} qubits, circuit has {n}"
        )
    vec = np.zeros(4**n)
    vec[0] = 1.0
    last_busy = [0.0] * n
    pending: dict[int, np.ndarray] = {}  # wire -> 4x4 not yet applied
    ops = []  # each two-qubit unit, with the 4x4s pending on its wires before it

    def apply(vec, superop, wires):
        dual, basis = _REAL_BASIS[len(wires)]
        vec_qubits = tuple(b for w in wires for b in (2 * w, 2 * w + 1))
        return apply_matrix(vec, (dual @ superop @ basis).real, vec_qubits, 2 * n)

    for unit, start in zip(sc.units, sc.start_times):
        for w in unit.wires:
            if start > last_busy[w]:
                idle = noise.relaxation(w, start - last_busy[w])
                pending[w] = idle @ pending.get(w, _IDENTITY)
            last_busy[w] = start + unit.duration_ns
        if unit.kind is GateKind.BARRIER:
            continue
        if len(unit.wires) == 1:
            w = unit.wires[0]
            pending[w] = unit_channel(unit, noise) @ pending.get(w, _IDENTITY)
            continue
        ops.append((unit, [pending.pop(w, _IDENTITY) for w in unit.wires]))
    last_op = {w: i for i, (unit, _) in enumerate(ops) for w in unit.wires}
    for i, (unit, heads) in enumerate(ops):
        channel = unit_channel(unit, noise)
        if any(h is not _IDENTITY for h in heads):
            channel = channel @ _per_wire(heads)
        # what follows a wire's last two-qubit unit joins that unit, from the left
        tails = [pending.pop(w) if last_op[w] == i and w in pending else _IDENTITY
                 for w in unit.wires]
        if any(t is not _IDENTITY for t in tails):
            channel = _per_wire(tails) @ channel
        vec = apply(vec, channel, unit.wires)
    for w in sorted(pending):
        vec = apply(vec, pending[w], (w,))
    # wire w's digit 1 holds x, digit 2 y: they become rho01 = x - iy, rho10 = x + iy
    vec = vec.astype(complex)
    for w in range(n):
        digits = vec.reshape(4 ** (n - 1 - w), 4, 4**w)
        digits[:, 1] -= 1j * digits[:, 2]
        digits[:, 2] *= 2j
        digits[:, 2] += digits[:, 1]
    # interleaved bits (..., row 1, col 1, row 0, col 0) -> rows, then columns
    axes = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    rho = vec.reshape((2,) * (2 * n)).transpose(axes)
    return DensityMatrix(n, rho.reshape(2**n, 2**n))


# --- sampling and readout ---


def apply_confusion(probs: np.ndarray, confusions: list[np.ndarray]) -> np.ndarray:
    """Push a probability vector through per-qubit confusion matrices."""
    n = len(confusions)
    for q, m in enumerate(confusions):
        probs = apply_matrix(probs, m, (q,), n)
    return probs


def check_shots(shots: int) -> None:
    if not 1 <= shots <= 2**63 - 1:
        raise ValidationError(f"shots must be in 1..2**63-1, got {shots}")


def sample(
    rho: DensityMatrix,
    shots: int,
    confusions: list[np.ndarray] | None,
    seed: int,
) -> np.ndarray:
    """Multinomial readout of diag(rho) through the confusion matrices.

    Returns the count of every outcome, indexed by the basis integer.
    """
    check_shots(shots)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    probs = rho.probabilities()
    if confusions is not None:
        probs = apply_confusion(probs, confusions)
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
    return np.random.default_rng(seed).multinomial(shots, probs)


def mitigate_readout(
    counts: np.ndarray, confusions: list[np.ndarray]
) -> tuple[dict[int, float], np.ndarray]:
    """Invert the tensor-product confusion matrices.

    Returns the raw quasi-probabilities, as a mapping from each outcome with
    a nonzero value to that value, and the clipped-and-renormalized
    distribution vector.
    """
    n = len(confusions)
    inverses = []
    for q, m in enumerate(confusions):
        if abs(np.linalg.det(m)) < 1e-12:
            raise InfeasibleError(f"readout confusion matrix of wire {q} is singular")
        inverses.append(np.linalg.inv(m))
    vec = np.asarray(counts, dtype=float)
    if vec.shape != (2**n,):
        raise ValidationError(f"counts have shape {vec.shape}, expected ({2**n},)")
    total = vec.sum()
    if total <= 0:
        raise ValidationError("empty counts")
    quasi_vec = apply_confusion(vec / total, inverses)
    clipped = np.clip(quasi_vec, 0.0, None)
    norm = clipped.sum()
    if norm <= 0:
        raise InfeasibleError("mitigation produced no non-negative mass")
    # A mapping rather than a vector: the benchmark's traced mode
    # (perfbench/tracer.py) reads the quasi-probabilities with ``.values()``.
    quasi = {i: float(v) for i, v in enumerate(quasi_vec) if v != 0.0}
    return quasi, clipped / norm


def remap_counts(vec: np.ndarray, wire_to_clbit: dict[int, int]) -> np.ndarray:
    """Re-index a wire-indexed outcome vector by classical bit.

    Bit ``wire`` of an old index becomes bit ``wire_to_clbit[wire]`` of the
    new one: a transpose of the (2,)*n tensor, whose axis a is bit n-1-a.
    """
    n = len(wire_to_clbit)
    axes = [0] * n
    for wire, clbit in wire_to_clbit.items():
        axes[n - 1 - clbit] = n - 1 - wire
    return np.reshape(vec, (2,) * n).transpose(axes).reshape(-1)


def run_noisy(
    lowered: LoweredCircuit,
    dev: DeviceModel,
    shots: int,
    seed: int,
    noise_scale: float = 1.0,
    mitigated: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve, sample through the scaled confusion matrices and remap.

    Returns the raw wire-indexed counts and the clbit-indexed distribution,
    readout-mitigated unless ``mitigated`` is false.
    """
    noise = NoiseModel.from_device(dev, lowered.chain, scale=noise_scale)
    confusions = noise.confusion_matrices()
    rho = evolve(lowered, noise)
    counts = sample(rho, shots, confusions, seed)
    dist = mitigate_readout(counts, confusions)[1] if mitigated else counts
    return counts, remap_counts(dist, lowered.measure_map())


def ideal_distribution(c: CircuitIR) -> np.ndarray:
    """Exact noiseless outcome distribution indexed by classical bits."""
    probs = np.abs(statevector(c)) ** 2
    mapping = c.measure_map()
    return remap_counts(probs, mapping) if mapping else probs


# --- Choi matrices and process fidelity ---


@dataclass(frozen=True)
class ChoiMatrix:
    """Trace-normalized Choi state of a channel on dim-dimensional inputs."""

    dim: int
    data: np.ndarray


def choi_of(superop: np.ndarray) -> ChoiMatrix:
    """Choi state of a channel, reshuffled from its superoperator.

    Index layout: row = input*dim + output; tracing out the output subsystem
    of a CPTP channel leaves I/dim.
    """
    dim = math.isqrt(superop.shape[0])
    # superop[(a, b), (i, j)] = channel(|i><j|)[a, b] -> choi[(i, a), (j, b)]
    choi = superop.reshape(dim, dim, dim, dim).transpose(2, 0, 3, 1)
    return ChoiMatrix(dim=dim, data=choi.reshape(dim * dim, dim * dim) / dim)


def composite_channel(
    unit: LoweredUnit, dev: DeviceModel, scale: float = 1.0
) -> np.ndarray:
    """Noisy superoperator of one composite lowered on the two-wire frame (0, 1).

    It is the composite's ``unit_channel`` under the noise of its
    ``physical`` qubits.  A CX composite is refused: its direction depends
    on the polarity, and the channel stands for an undirected target.
    """
    if unit.kind is GateKind.CX:
        raise ValidationError("cx is directed; composite channels are undirected")
    noise = NoiseModel.from_device(dev, unit.physical, scale=scale)
    return unit_channel(unit, noise)


def process_fidelity(a: ChoiMatrix, b: ChoiMatrix) -> float:
    """Fidelity of two normalized Choi matrices, one of them pure, in [0, 1].

    A pure m (a first) has (tr m)^2 - tr m^2 <= 2e-14 (tr m^2 / tr m)^2, so
    its weight off its top eigenvector is below 1e-14 of the top eigenvalue
    and F = tr(m x) (Jozsa 1994) to about 1e-14.  QPT's ideal side, a
    unitary, is pure; two mixed arguments are refused.
    """
    if a.data.shape != b.data.shape:
        raise ValidationError(
            f"Choi dimensions differ: {a.data.shape} vs {b.data.shape}"
        )
    for name, m in (("a", a), ("b", b)):
        if not np.isfinite(m.data).all():
            raise ValidationError(f"Choi matrix {name} has a non-finite entry")
    for m, x in ((a, b), (b, a)):
        t, s = np.trace(m.data).real, np.vdot(m.data, m.data).real
        if t > 0 and t * t - s <= 2e-14 * (s / t) ** 2:
            return min(1.0, max(0.0, float(np.vdot(m.data, x.data).real)))
    raise ValidationError("neither Choi matrix is pure: process fidelity is read"
                          " against a pure (unitary-target) Choi state")


def qpt_infidelities(
    dev: DeviceModel,
    edge: EdgeCalibration,
    target: GateKind,
    opt,
    repetitions,
    angles,
    noise_scale: float = 1.0,
) -> list[dict]:
    """Infidelity 1-F of repeated lowered composites vs the ideal channel.

    Emits one row per (variant, angle, repetition count), where variants are
    the default CT/TC realizations plus the pulse-optimized ones where the
    edge supports them.  The noisy channel repeats the composite; the ideal
    is the channel of U^reps, whose Choi state is pure to rounding.
    """
    if target not in (GateKind.ZZ, GateKind.CZ, GateKind.ZZ_SWAP):
        raise ValidationError(f"{target.value} is not an undirected two-qubit kind")
    variants: list[tuple[str, OptLevel, Polarity]] = [
        ("default-ct", OptLevel.DEFAULT, Polarity.CT),
        ("default-tc", OptLevel.DEFAULT, Polarity.TC),
    ]
    if uses_pulse(edge, opt, target):
        variants.append(("opt-ct", opt, Polarity.CT))
        variants.append(("opt-tc", opt, Polarity.TC))
    rows = []
    for name, level, polarity in variants:
        for theta in angles:
            unit = apply_rule(
                target, theta, (0, 1), (edge.control, edge.target), edge, dev,
                level, polarity,
            )
            noisy = composite_channel(unit, dev, scale=noise_scale)
            ideal = local_matrix(target, theta)
            for reps in repetitions:
                fid = process_fidelity(
                    choi_of(depolarized_unitary(np.linalg.matrix_power(ideal, reps), 0.0)),
                    choi_of(np.linalg.matrix_power(noisy, reps)),
                )
                rows.append(
                    {
                        "variant": name,
                        "angle": float(theta),
                        "repetitions": int(reps),
                        "duration_ns": unit.duration_ns,
                        "infidelity": 1.0 - fid,
                    }
                )
    return rows
