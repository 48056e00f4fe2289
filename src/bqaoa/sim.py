"""Density-matrix simulation under calibration-derived noise.

Noise model per scheduled unit: relaxation of each participating qubit for
the time it idled since it was last busy, the unit's unitary, then a
depolarizing channel whose average gate infidelity equals the unit's
effective error, then thermal relaxation for the unit's duration.  A global
scale factor s multiplies the depolarizing infidelity and the relaxation
rates and interpolates the readout confusion matrices; s = 0 is noiseless.

Every channel is one Liouville superoperator (``Channel``): the 4^k x 4^k
matrix sum_K K (x) conj(K) on k qubits, acting on the row-major vec(rho)
whose entry i*d + j is rho[i, j], with local qubit 0 the least-significant
bit of i and j.  ``evolve`` composes each scheduled unit into one such
matrix and applies it to rho once; QPT repeats a channel with a matrix
power and reads its Choi matrix off by reshuffling (Wood, Biamonte & Cory,
arXiv:1111.6950).

Each piece has a closed form.  The unit's unitary is ``local_matrix`` of
its kind and angle, not the product of its lowered gates: lowering is exact
up to a global phase e^{ia}, and U (x) conj(U) cancels it.  With the
depolarizing channel it reads (1-lam) U (x) conj(U) + (lam/d) |vec I><vec I|.
Relaxation of one qubit over time t moves the excited population
1 - e^{-t/T1} to |0> and scales the coherences by e^{-t/T2}.

Outcome distributions and counts are vectors indexed by the little-endian
basis integer: qubit (or classical bit) 0 is bit 0 of the index.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitIR, GateKind, apply_matrix, local_matrix, statevector
from .device import DeviceModel, EdgeCalibration
from .errors import (
    DimensionError,
    SingularConfusionError,
    TooLargeError,
    ValidationError,
)
from .lower import LoweredCircuit, LoweredUnit, RuleApplication

MAX_DENSITY_QUBITS = 10


@dataclass
class DensityMatrix:
    """A 2^n x 2^n density operator."""

    n: int
    data: np.ndarray

    @classmethod
    def ground(cls, n: int) -> "DensityMatrix":
        dim = 2**n
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return cls(n, rho)

    def probabilities(self) -> np.ndarray:
        p = np.clip(np.real(np.diag(self.data)), 0.0, None)
        total = p.sum()
        return p / total if total > 0 else p

    def validate(self, tol: float = 1e-10) -> None:
        if not np.allclose(self.data, self.data.conj().T, atol=tol):
            raise ValidationError("density matrix is not Hermitian")
        if abs(np.trace(self.data).real - 1.0) > tol:
            raise ValidationError(f"trace is {np.trace(self.data).real}, not 1")
        eigenvalues = np.linalg.eigvalsh(self.data)
        if eigenvalues.min() < -1e-9:
            raise ValidationError(f"negative eigenvalue {eigenvalues.min()}")


# --- channels as Liouville superoperators ---


class Channel:
    """A CPTP map on k qubits, held as its Liouville superoperator.

    ``superop`` is the 4^k x 4^k matrix S = sum_K K (x) conj(K), so that
    vec(channel(rho)) = S vec(rho) for the row-major vec(rho), whose entry
    i*d + j is rho[i, j] (d = 2^k).  Local qubit 0 is the least-significant
    bit of both i and j.  ``compose`` applies a local superoperator after
    what is already there; ``apply`` is one tensordot over the row and
    column axes of the wires it acts on.
    """

    def __init__(self, num_qubits: int, superop: np.ndarray | None = None):
        self.num_qubits = num_qubits
        if superop is None:
            superop = np.eye(4**num_qubits, dtype=complex)
        self.superop = superop

    def compose(self, local: np.ndarray, qubits) -> "Channel":
        """Follow the channel with superoperator ``local`` on local ``qubits``."""
        k = self.num_qubits
        self.superop = apply_matrix(self.superop, local, _vec_qubits(qubits, k), 2 * k)
        return self

    def apply(self, rho: np.ndarray, wires=None) -> np.ndarray:
        """The channel applied to ``wires`` of rho (default: all k qubits)."""
        n = int(rho.shape[0]).bit_length() - 1
        if wires is None:
            wires = range(self.num_qubits)
        out = apply_matrix(rho.reshape(-1), self.superop, _vec_qubits(wires, n), 2 * n)
        return out.reshape(rho.shape)

    def repeated(self, times: int) -> "Channel":
        return Channel(self.num_qubits, np.linalg.matrix_power(self.superop, times))


def _vec_qubits(wires, n: int) -> tuple[int, ...]:
    """Qubits of row-major vec(rho), 2n of them, that carry ``wires``.

    Column indices are the low n bits of vec(rho) and row indices the high
    n, so a local superoperator's column qubits come first.
    """
    wires = tuple(wires)
    return wires + tuple(n + w for w in wires)


def depolarized_unitary(u: np.ndarray, lam: float) -> np.ndarray:
    """Superoperator of rho -> (1-lam) U rho U^dag + lam tr(rho) I/d.

    (1-lam) U (x) conj(U) + (lam/d) |vec I><vec I|; the entries of vec I
    that are 1 sit at the multiples of d + 1.
    """
    dim = u.shape[0]
    superop = (1.0 - lam) * np.kron(u, u.conj())
    superop[:: dim + 1, :: dim + 1] += lam / dim
    return superop


def relaxation_superop(duration_ns: float, t1_us: float, t2_us: float) -> np.ndarray:
    """Amplitude damping and dephasing of one qubit over ``duration_ns``.

    The excited population decays as e^{-t/T1} into |0> and the coherences
    as e^{-t/T2}; a T2 above its physical bound 2 T1 counts as 2 T1.
    """
    t = duration_ns * 1e-3  # us
    decay = 1.0 - np.exp(-t / t1_us)
    coherence = np.exp(-t / min(t2_us, 2.0 * t1_us))
    # over vec(rho) = (rho00, rho01, rho10, rho11)
    superop = np.diag([1.0, coherence, coherence, 1.0 - decay]).astype(complex)
    superop[0, 3] = decay
    return superop


# --- calibration-derived noise model ---


@dataclass(frozen=True)
class QubitNoise:
    t1_us: float
    t2_us: float
    confusion: np.ndarray  # confusion[measured][true]


@dataclass(frozen=True)
class NoiseModel:
    """Noise parameters for the qubits a circuit actually runs on."""

    qubits: tuple[QubitNoise, ...]
    scale: float = 1.0

    @classmethod
    def from_device(
        cls, dev: DeviceModel, physical_qubits, scale: float = 1.0
    ) -> "NoiseModel":
        if not (math.isfinite(scale) and scale >= 0):
            raise ValidationError(f"noise scale {scale} must be finite and >= 0")
        entries = []
        for q in physical_qubits:
            cal = dev.qubits[q]
            t1, t2 = cal.t1_us, cal.t2_us
            if t2 > 2.0 * t1:
                warnings.warn(
                    f"qubit {q}: T2={t2} exceeds 2*T1={2 * t1}; clamping",
                    stacklevel=2,
                )
                t2 = 2.0 * t1
            p01, p10 = cal.prob_meas0_prep1, cal.prob_meas1_prep0
            confusion = np.array([[1.0 - p10, p01], [p10, 1.0 - p01]])
            entries.append(QubitNoise(t1_us=t1, t2_us=t2, confusion=confusion))
        return cls(qubits=tuple(entries), scale=scale)

    def depolarizing_strength(self, error: float, k: int) -> float:
        dim = 2**k
        lam = self.scale * error * dim / (dim - 1)
        return min(1.0, max(0.0, lam))

    def relaxation(self, position: int, duration_ns: float) -> np.ndarray:
        """Relaxation superoperator of one qubit, its time scaled."""
        noise = self.qubits[position]
        return relaxation_superop(duration_ns * self.scale, noise.t1_us, noise.t2_us)

    def scaled_confusion(self, position: int) -> np.ndarray:
        """Confusion interpolated/extrapolated by the noise scale."""
        m = np.eye(2) + self.scale * (self.qubits[position].confusion - np.eye(2))
        m = np.clip(m, 0.0, 1.0)
        sums = m.sum(axis=0)
        return m / sums

    def confusion_matrices(self) -> list[np.ndarray]:
        return [self.scaled_confusion(i) for i in range(len(self.qubits))]


def unit_channel(unit: LoweredUnit, idle_ns, noise: NoiseModel) -> Channel:
    """One scheduled unit as a channel on its wires (local qubit i = wires[i]).

    In order: relaxation for each wire's idle time ``idle_ns[i]`` since it
    was last busy, the unit's unitary ``local_matrix(kind, angle)`` with a
    depolarizing channel for its effective error, then relaxation for the
    unit's own duration.  A unit without gates (a measurement) has no
    unitary and no error, so it only relaxes.
    """
    k = len(unit.wires)
    channel = Channel(k)
    noisy = noise.scale > 0
    for i, (w, idle) in enumerate(zip(unit.wires, idle_ns)):
        if idle > 0 and noisy:
            channel.compose(noise.relaxation(w, idle), (i,))
    if unit.gates:
        u = local_matrix(unit.kind, unit.angle)
        lam = noise.depolarizing_strength(unit.error, k)
        channel.compose(depolarized_unitary(u, lam), range(k))
    if unit.duration_ns > 0 and noisy:
        for i, w in enumerate(unit.wires):
            channel.compose(noise.relaxation(w, unit.duration_ns), (i,))
    return channel


def evolve(
    sc: LoweredCircuit, noise: NoiseModel, rho0: DensityMatrix | None = None
) -> DensityMatrix:
    """Run a lowered circuit's schedule as a density-matrix evolution.

    Each unit applies once, in program order, as its ``unit_channel``.
    Measurement units only relax (readout noise is applied at sampling
    time).  A barrier, which has no gate and no duration, relaxes its idle
    wires one at a time, so no superoperator spans its whole width.
    Deterministic.
    """
    n = sc.num_qubits
    if n > MAX_DENSITY_QUBITS:
        raise TooLargeError(f"{n} qubits exceeds density-matrix limit")
    if len(noise.qubits) != n:
        raise DimensionError(
            f"noise model covers {len(noise.qubits)} qubits, circuit has {n}"
        )
    rho = (rho0 or DensityMatrix.ground(n)).data.copy()
    last_busy = [0.0] * n
    for unit, start in zip(sc.units, sc.start_times):
        idle = [start - last_busy[w] for w in unit.wires]
        for w in unit.wires:
            last_busy[w] = start + unit.duration_ns
        if unit.kind is GateKind.BARRIER:
            for w, t in zip(unit.wires, idle):
                if t > 0 and noise.scale > 0:
                    rho = Channel(1, noise.relaxation(w, t)).apply(rho, (w,))
            continue
        rho = unit_channel(unit, idle, noise).apply(rho, unit.wires)
    return DensityMatrix(n, rho)


# --- sampling and readout ---


def apply_confusion(probs: np.ndarray, confusions: list[np.ndarray]) -> np.ndarray:
    """Push a probability vector through per-qubit confusion matrices."""
    n = len(confusions)
    t = probs.reshape((2,) * n)
    for q, m in enumerate(confusions):
        axis = n - 1 - q
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [axis])), 0, axis)
    return t.reshape(-1)


def sample(
    rho: DensityMatrix,
    shots: int,
    confusions: list[np.ndarray] | None,
    seed: int,
) -> np.ndarray:
    """Multinomial readout of diag(rho) through the confusion matrices.

    Returns the count of every outcome, indexed by the basis integer.
    """
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
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
            raise SingularConfusionError(f"confusion matrix of qubit {q} is singular")
        inverses.append(np.linalg.inv(m))
    vec = np.asarray(counts, dtype=float)
    if vec.shape != (2**n,):
        raise DimensionError(f"counts have shape {vec.shape}, expected ({2**n},)")
    total = vec.sum()
    if total <= 0:
        raise ValidationError("empty counts")
    quasi_vec = apply_confusion(vec / total, inverses)
    clipped = np.clip(quasi_vec, 0.0, None)
    norm = clipped.sum()
    if norm <= 0:
        raise SingularConfusionError("mitigation produced no non-negative mass")
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
    rho = evolve(lowered, noise)
    confusions = noise.confusion_matrices()
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


def choi_of(channel: Channel) -> ChoiMatrix:
    """Choi state of a channel, reshuffled from its superoperator.

    Index layout: row = input*dim + output; tracing out the output subsystem
    of a CPTP channel leaves I/dim.
    """
    dim = 2**channel.num_qubits
    # superop[(a, b), (i, j)] = channel(|i><j|)[a, b] -> choi[(i, a), (j, b)]
    choi = channel.superop.reshape(dim, dim, dim, dim).transpose(2, 0, 3, 1)
    return ChoiMatrix(dim=dim, data=choi.reshape(dim * dim, dim * dim) / dim)


def unitary_channel(mat: np.ndarray) -> Channel:
    n = int(round(np.log2(mat.shape[0])))
    return Channel(n, depolarized_unitary(mat, 0.0))


def composite_channel(
    app: RuleApplication,
    edge: EdgeCalibration,
    dev: DeviceModel,
    scale: float = 1.0,
) -> Channel:
    """Noisy channel of one lowered composite on a two-wire frame (0, 1).

    Wire 0 is the edge's native control, wire 1 its target (the frame
    apply_rule builds expansions in).  It is the ``unit_channel`` of the
    composite's unit with no idle time.  A CX composite is refused: its
    direction depends on the polarity, which the frame does not carry.
    """
    if app.kind is GateKind.CX:
        raise ValidationError("cx is directed; composite channels are undirected")
    unit = app.unit((0, 1), (edge.control, edge.target), edge, dev)
    noise = NoiseModel.from_device(dev, unit.physical, scale=scale)
    return unit_channel(unit, (0.0, 0.0), noise)


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Hermitian square root; eigenvalues below 1e-12 of the largest are
    treated as exact zeros (sqrt would otherwise amplify rounding noise)."""
    values, vectors = np.linalg.eigh(mat)
    cutoff = 1e-12 * max(values.max(), 0.0)
    values = np.where(values > cutoff, values, 0.0)
    return (vectors * np.sqrt(values)) @ vectors.conj().T


def process_fidelity(a: ChoiMatrix, b: ChoiMatrix) -> float:
    """Uhlmann fidelity of two normalized Choi matrices, clamped to [0, 1]."""
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"Choi dimensions differ: {a.data.shape} vs {b.data.shape}"
        )
    root = _sqrtm_psd(a.data)
    inner = _sqrtm_psd(root @ b.data @ root)
    fidelity = float(np.real(np.trace(inner)) ** 2)
    return min(1.0, max(0.0, fidelity))


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
    repeats the target unitary.
    """
    from .lower import OptLevel, Polarity, apply_rule, uses_pulse

    if target not in (GateKind.ZZ, GateKind.CZ, GateKind.ZZ_SWAP):
        raise ValidationError(f"{target.value} is not an undirected two-qubit kind")
    variants: list[tuple[str, OptLevel, Polarity]] = [
        ("default-ct", OptLevel.DEFAULT, Polarity.CT),
        ("default-tc", OptLevel.DEFAULT, Polarity.TC),
    ]
    if uses_pulse(edge, opt, target) and opt is not OptLevel.DEFAULT:
        variants.append(("opt-ct", opt, Polarity.CT))
        variants.append(("opt-tc", opt, Polarity.TC))
    rows = []
    for name, level, polarity in variants:
        for theta in angles:
            app = apply_rule(target, theta, 0, 1, edge, dev, level, polarity)
            noisy = composite_channel(app, edge, dev, scale=noise_scale)
            ideal = unitary_channel(local_matrix(target, theta))
            for reps in repetitions:
                fid = process_fidelity(
                    choi_of(ideal.repeated(reps)), choi_of(noisy.repeated(reps))
                )
                rows.append(
                    {
                        "variant": name,
                        "angle": float(theta),
                        "repetitions": int(reps),
                        "duration_ns": app.duration_ns,
                        "infidelity": 1.0 - fid,
                    }
                )
    return rows
