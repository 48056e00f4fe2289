"""Density-matrix simulation under calibration-derived noise.

Noise model per scheduled unit: the unit's unitary, then a depolarizing
channel whose average gate infidelity equals the unit's effective error,
then thermal relaxation for the unit's duration.  A unit's channel depends
on the unit alone.  Idle time is separate: a wire that idled since it was
last busy relaxes for that time before its next unit.  A global scale
factor s multiplies the depolarizing infidelity and the relaxation rates
and interpolates the readout confusion matrices; s = 0 is noiseless.  The
model reads the chain's own ``QubitCalibration`` records.

Every channel is a plain array: its real matrix over the Hermitian
operator basis |0><0|, X, Y, |1><1| of each wire (Wood, Biamonte & Cory,
arXiv:1111.6950), real as a channel maps Hermitian operators to Hermitian
operators.  ``unit_channel`` builds each scheduled unit from closed forms.
``evolve`` folds one-qubit work, relaxation included, into the next
two-qubit matrix on its wire, and what follows a wire's last two-qubit unit
into that unit.  It holds rho as 4^n real coordinates, wire q's digit on
bits 2q, 2q+1, so a matrix on neighbouring wires acts on one contiguous
block of four bits, which ``apply_matrix`` applies by a reshape and one
matmul; rho becomes the standard complex 2^n x 2^n array once, at the end.
Only QPT reads the standard Liouville superoperator sum_K K (x) conj(K),
on the row-major vec(rho) (entry i*d + j is rho[i, j], local qubit 0 the
least-significant bit): it repeats ``composite_channel`` by a matrix power
and reshuffles it into a Choi matrix; the ideal side's Choi state is pure,
so its fidelity is one inner product.

The pieces: the unit's unitary is ``local_matrix`` of its kind and angle,
not the product of its lowered gates: lowering is exact up to a global
phase e^{ia}, and U (x) conj(U) cancels it.  Its real matrix M, made at
import, is a constant or, for a rotation, A + cos t B + sin t C; with the
depolarizing channel it reads (1-lam) M + (lam/d) v v^T, v = (1, 0, 0, 1)
per wire.  Relaxation is the closed form of ``relaxation_superop``.

Outcome distributions and counts are vectors indexed by the little-endian
basis integer: qubit (or classical bit) 0 is bit 0 of the index.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import (
    PARAM_KINDS, TWO_QUBIT_KINDS, CircuitIR, GateKind, apply_matrix, local_matrix,
    require_dense, statevector,
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


# --- channels as real matrices over the operator basis ---

# One wire's basis |0><0|, X, Y, |1><1| as columns over vec(rho) and its dual
# (inverse): a real matrix is dual @ superop @ basis; two wires take products.
_G = np.array([[1, 0, 0, 0], [0, 1, -1j, 0], [0, 1, 1j, 0], [0, 0, 0, 1]])
_G_DUAL = np.array([[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5j, -0.5j, 0], [0, 0, 0, 1]])
_PAIRED = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of square matrices without its generic-shape overhead."""
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(len(a) * len(b), -1)


_REAL_BASIS = {  # number of wires -> (dual, basis); _PAIRED reorders vec(rho)
    1: (_G_DUAL, _G),
    2: (_kron(_G_DUAL, _G_DUAL)[:, _PAIRED], _kron(_G, _G)[_PAIRED]),
}


def relaxation_superop(duration_ns: float, t1_us: float, t2_us: float) -> np.ndarray:
    """Real matrix of amplitude damping and dephasing of one qubit over
    ``duration_ns``: the excited population decays as e^{-t/T1} into |0>,
    the coherences as e^{-t/T2}; a T2 above its bound 2 T1 counts as 2 T1."""
    t = duration_ns * 1e-3  # us
    decay = 1.0 - math.exp(-t / t1_us)
    coherence = math.exp(-t / min(t2_us, 2.0 * t1_us))
    return np.array((1.0, 0.0, 0.0, decay, 0.0, coherence, 0.0, 0.0,
                     0.0, 0.0, coherence, 0.0, 0.0, 0.0, 0.0, 1.0 - decay)).reshape(4, 4)


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
        """Real relaxation matrix of one qubit, its time scaled."""
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


def _terms(kind: GateKind) -> np.ndarray:
    """A kind's real matrices for ``unit_channel`` to weigh: the fully
    depolarizing channel's, (1/d) v v^T, then its unitary's, one for a fixed
    kind and A, B, C for a rotation, read off at t = 0, pi/2 and pi, as each
    entry of U(t) (x) conj(U(t)) is affine in (cos t, sin t)."""
    dual, basis = _REAL_BASIS[2 if kind in TWO_QUBIT_KINDS else 1]
    angles = (0.0, math.pi / 2, math.pi) if kind in PARAM_KINDS else (None,)
    m = [(dual @ _kron(u, u.conj()) @ basis).real
         for u in (local_matrix(kind, t) for t in angles)]
    if kind in PARAM_KINDS:
        mean = (m[0] + m[2]) / 2
        m = [mean, m[0] - mean, m[1] - mean]
    depolarized = np.outer([1.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.5])
    if kind in TWO_QUBIT_KINDS:
        depolarized = _kron(depolarized, depolarized)
    return np.stack([depolarized, *m])


_TERMS = {k: _terms(k) for k in GateKind if k not in (GateKind.MEASURE, GateKind.BARRIER)}


def _depolarized(unit: LoweredUnit, noise: NoiseModel) -> np.ndarray:
    """Real matrix of a unit's unitary with its depolarizing channel."""
    lam = noise.depolarizing_strength(unit.error, len(unit.wires))
    keep = 1.0 - lam
    weights = [lam, keep]  # (1-lam) M + (lam/d) v v^T
    if unit.kind in PARAM_KINDS:  # M = A + cos t B + sin t C
        weights += [keep * math.cos(unit.angle), keep * math.sin(unit.angle)]
    return np.add.reduce(np.array(weights)[:, None, None] * _TERMS[unit.kind])


def unit_channel(unit: LoweredUnit, noise: NoiseModel) -> np.ndarray:
    """Real matrix of one scheduled unit on its wires (local wire i = wires[i]).

    The unit's unitary ``local_matrix(kind, angle)`` with a depolarizing
    channel for its effective error, then relaxation for its own duration,
    wire i's on row digit i (kron(r1, r0) on two wires).  A measurement only
    relaxes.  It depends on the unit alone, not on where the schedule puts it.
    """
    k = len(unit.wires)
    channel = np.eye(4**k) if unit.kind is GateKind.MEASURE else _depolarized(unit, noise)
    for i, w in enumerate(unit.wires):  # row 0 of digit i gains d row 3, then rows scale
        relax = noise.relaxation(w, unit.duration_ns)
        rows = channel.reshape(4 ** (k - 1 - i), 4, -1)
        rows[:, 0] += relax[0, 3] * rows[:, 3]
        rows *= relax.diagonal()[:, None]
    return channel


_IDENTITY = np.eye(4)


def evolve(sc: LoweredCircuit, noise: NoiseModel) -> DensityMatrix:
    """Run a lowered circuit's schedule as a density-matrix evolution from |0..0>.

    Each unit acts once, in program order, as its ``unit_channel``; a
    measurement only relaxes (readout noise is applied at sampling time).
    A wire relaxes once per gap between the starts of its units, idle time
    included, and after its last unit for that unit's duration.  Relaxation
    and one-qubit work multiply into a pending 4x4 per wire, which the next
    two-qubit unit on the wire takes in; what follows a wire's last
    two-qubit unit joins it from the left.  So each two-qubit unit is one
    apply, and only a wire with none has a 4x4 apply; a barrier only
    relaxes its wires up to its start.  Work on other wires commutes, so
    only rounding differs from one apply per unit.
    """
    n = sc.num_qubits
    require_dense(n)
    if len(noise.qubits) != n:
        raise ValidationError(
            f"noise model covers {len(noise.qubits)} qubits, circuit has {n}"
        )
    vec = np.zeros(4**n)
    vec[0] = 1.0
    relaxed_to, busy_to = [0.0] * n, [0.0] * n  # wire w's pending relaxation, last end
    pending: dict[int, np.ndarray] = {}  # wire -> 4x4 not yet applied
    ops = []  # each two-qubit unit, with the 4x4s pending on its wires before it

    def then(w, matrix):  # one-qubit work after what is pending on wire w
        pending[w] = matrix @ pending[w] if w in pending else matrix

    def relax(w, now):
        if now > relaxed_to[w]:
            then(w, noise.relaxation(w, now - relaxed_to[w]))
            relaxed_to[w] = now

    def apply(vec, channel, wires):
        vec_qubits = tuple(b for w in wires for b in (2 * w, 2 * w + 1))
        return apply_matrix(vec, channel, vec_qubits, 2 * n)

    for unit, start in zip(sc.units, sc.start_times):
        for w in unit.wires:
            relax(w, start)
            busy_to[w] = start + unit.duration_ns
        if unit.kind in (GateKind.BARRIER, GateKind.MEASURE):
            continue
        if len(unit.wires) == 2:
            ops.append((unit, [pending.pop(w, _IDENTITY) for w in unit.wires]))
        else:
            then(unit.wires[0], _depolarized(unit, noise))
    for w in range(n):
        relax(w, busy_to[w])
    last_op = {w: i for i, (unit, _) in enumerate(ops) for w in unit.wires}
    for i, (unit, heads) in enumerate(ops):
        channel = _depolarized(unit, noise)
        if any(h is not _IDENTITY for h in heads):
            channel = channel @ _kron(heads[1], heads[0])
        # what follows a wire's last two-qubit unit joins that unit, from the left
        tails = [pending.pop(w) if last_op[w] == i and w in pending else _IDENTITY
                 for w in unit.wires]
        if any(t is not _IDENTITY for t in tails):
            channel = _kron(tails[1], tails[0]) @ channel
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
    ``physical`` qubits, taken out of the operator basis for ``choi_of``.
    A CX composite is refused: its direction depends on the polarity, and
    the channel stands for an undirected target.
    """
    if unit.kind is GateKind.CX:
        raise ValidationError("cx is directed; composite channels are undirected")
    noise = NoiseModel.from_device(dev, unit.physical, scale=scale)
    dual, basis = _REAL_BASIS[2]
    return basis @ unit_channel(unit, noise) @ dual


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
                u = np.linalg.matrix_power(ideal, reps)
                fid = process_fidelity(
                    choi_of(_kron(u, u.conj())),
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
