"""Problem encodings, the linear swap-network ansatz, and outcome metrics.

Spin convention: bit 0 maps to spin +1 and bit 1 to spin -1 (computational
|0> is the Z eigenvalue +1 state).  This single convention is shared by the
encoders, the bitstring cost, and the metrics.

Portfolio selection encodes as pair couplings (lam/2)(q*sigma_ij + A) and
fields -k_i with k_i = (lam/2)[A(2B - n) + (1-q) mu_i - q sum_j sigma_ij];
MaxCut encodes as (1/2) sum over edges of (1 - Z_i Z_j).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import circuit as cir
from .circuit import CircuitIR, Gate
from .errors import (
    DimensionError,
    LengthError,
    NoFeasibleOutcomeError,
    ParseError,
    TooLargeError,
    ValidationError,
)

MAX_ENUMERATION_QUBITS = 20


@dataclass(frozen=True)
class PortfolioInstance:
    """A dense portfolio-selection instance (choose budget assets of n)."""

    n: int
    mu: tuple[float, ...]
    sigma: tuple[tuple[float, ...], ...]
    q: float
    budget: int
    penalty: float
    lam: float

    def __post_init__(self) -> None:
        if len(self.mu) != self.n:
            raise DimensionError(f"mu has length {len(self.mu)}, expected {self.n}")
        if len(self.sigma) != self.n or any(len(row) != self.n for row in self.sigma):
            raise DimensionError(f"sigma must be {self.n}x{self.n}")
        for i in range(self.n):
            for j in range(self.n):
                if abs(self.sigma[i][j] - self.sigma[j][i]) > 1e-12:
                    raise ValidationError(f"sigma not symmetric at ({i}, {j})")
        if not 0 <= self.q <= 1:
            raise ValidationError(f"risk preference q={self.q} not in [0, 1]")
        if not 0 < self.budget < self.n:
            raise ValidationError(f"budget {self.budget} not in (0, {self.n})")
        if self.penalty < 0:
            raise ValidationError(f"penalty {self.penalty} must be >= 0")
        if self.lam <= 0:
            raise ValidationError(f"scaling factor {self.lam} must be > 0")


@dataclass(frozen=True)
class MaxCutInstance:
    """An unweighted simple graph for MaxCut."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for (i, j) in self.edges:
            if i == j:
                raise ValidationError(f"self-loop on node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValidationError(f"edge ({i}, {j}) outside 0..{self.n - 1}")
            if i > j:
                raise ValidationError(f"edge ({i}, {j}) must be ordered i < j")

    @classmethod
    def complete(cls, n: int) -> "MaxCutInstance":
        return cls(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


@dataclass(frozen=True)
class IsingProblem:
    """Diagonal cost sum_{i<j} J_ij Z_i Z_j + sum_i h_i Z_i + constant."""

    n: int
    j: tuple[tuple[tuple[int, int], float], ...]
    h: tuple[float, ...]
    constant: float = 0.0
    #: Hamming weight retained by budget post-selection, or None.
    feasible_weight: int | None = None

    def __post_init__(self) -> None:
        if len(self.h) != self.n:
            raise DimensionError(f"h has length {len(self.h)}, expected {self.n}")
        for (i, jj), value in self.j:
            if not (0 <= i < jj < self.n):
                raise ValidationError(f"coupling key ({i}, {jj}) must satisfy i < j < n")
            if not math.isfinite(value):
                raise ValidationError(f"coupling ({i}, {jj}) is not finite")
        for i, value in enumerate(self.h):
            if not math.isfinite(value):
                raise ValidationError(f"h[{i}] is not finite")
        if not math.isfinite(self.constant):
            raise ValidationError("constant is not finite")

    def coupling(self, a: int, b: int) -> float:
        key = (min(a, b), max(a, b))
        for pair, value in self.j:
            if pair == key:
                return value
        return 0.0


@dataclass(frozen=True)
class ParamVector:
    """QAOA angles: gammas for the cost layers, betas for the mixer layers."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.gammas) != len(self.betas):
            raise DimensionError(
                f"{len(self.gammas)} gammas vs {len(self.betas)} betas"
            )
        if not self.gammas:
            raise ValidationError("need p >= 1 layers")

    @property
    def p(self) -> int:
        return len(self.gammas)


def encode_portopt(inst: PortfolioInstance) -> IsingProblem:
    """Ising coefficients of a portfolio instance, with budget post-selection."""
    half = inst.lam / 2.0
    couplings = tuple(
        ((i, j), half * (inst.q * inst.sigma[i][j] + inst.penalty))
        for i in range(inst.n)
        for j in range(i + 1, inst.n)
    )
    row_sums = [sum(inst.sigma[i][j] for j in range(inst.n)) for i in range(inst.n)]
    k = [
        half
        * (
            inst.penalty * (2 * inst.budget - inst.n)
            + (1 - inst.q) * inst.mu[i]
            - inst.q * row_sums[i]
        )
        for i in range(inst.n)
    ]
    return IsingProblem(
        n=inst.n,
        j=couplings,
        h=tuple(-ki for ki in k),
        constant=0.0,
        feasible_weight=inst.budget,
    )


def encode_maxcut(inst: MaxCutInstance) -> IsingProblem:
    """Cut size as (1/2) sum over edges of (1 - Z_i Z_j)."""
    couplings = tuple((edge, -0.5) for edge in sorted(inst.edges))
    return IsingProblem(
        n=inst.n,
        j=couplings,
        h=(0.0,) * inst.n,
        constant=len(inst.edges) / 2.0,
        feasible_weight=None,
    )


def build_swap_network(prob: IsingProblem, params: ParamVector) -> CircuitIR:
    """Linear-topology QAOA circuit with skipped first/last SWAP layers.

    Per repetition: n neighbour layers alternating the even pairing
    (0,1),(2,3),... and the odd pairing (1,2),(3,4),...; the first and last
    layers apply plain ZZ, inner layers ZZ_SWAP.  Angles are 2*gamma*J for
    the logical pair currently resident on the wires, then an RZ layer with
    2*gamma*h routed through the permutation and an RX(2*beta) mixer layer.
    Measurements map each wire to the classical bit of its resident logical
    qubit, recording the final permutation.

    For two wires the odd pairing is empty; an angle-0 interaction keeps the
    layer structure (and therefore the depth formula) size-independent.
    """
    if prob.n < 2:
        raise ValidationError("swap network needs at least 2 qubits")
    n = prob.n
    gates: list[Gate] = [cir.h(w) for w in range(n)]
    resident = list(range(n))  # wire -> logical qubit
    for k in range(params.p):
        gamma, beta = params.gammas[k], params.betas[k]
        for layer in range(1, n + 1):
            first_wire = 0 if layer % 2 == 1 else 1
            pairs = [(w, w + 1) for w in range(first_wire, n - 1, 2)]
            filler = not pairs  # only possible for n == 2
            if filler:
                pairs = [(0, 1)]
            interact_and_swap = 1 < layer < n
            for w1, w2 in pairs:
                a, b = resident[w1], resident[w2]
                angle = 0.0 if filler else 2.0 * gamma * prob.coupling(a, b)
                if interact_and_swap:
                    gates.append(cir.zz_swap(angle, w1, w2))
                    resident[w1], resident[w2] = resident[w2], resident[w1]
                else:
                    gates.append(cir.zz(angle, w1, w2))
        for w in range(n):
            gates.append(cir.rz(2.0 * gamma * prob.h[resident[w]], w))
        for w in range(n):
            gates.append(cir.rx(2.0 * beta, w))
    for w in range(n):
        gates.append(cir.measure(w, resident[w]))
    return CircuitIR(num_qubits=n, gates=tuple(gates), num_clbits=n)


def final_wire_to_logical(c: CircuitIR) -> tuple[int, ...]:
    """Recover the final wire -> logical permutation from the measurements."""
    mapping = c.measure_map()
    if sorted(mapping) != list(range(c.num_qubits)):
        raise ValidationError("circuit does not measure every wire exactly once")
    return tuple(mapping[w] for w in range(c.num_qubits))


def _bits_from_key(z, n: int) -> list[int]:
    if isinstance(z, str):
        if len(z) != n:
            raise LengthError(f"bitstring {z!r} has length {len(z)}, expected {n}")
        if set(z) - {"0", "1"}:
            raise LengthError(f"bitstring {z!r} contains non-binary characters")
        return [int(z[n - 1 - i]) for i in range(n)]  # qubit 0 rightmost
    bits = list(z)
    if len(bits) != n:
        raise LengthError(f"bit sequence has length {len(bits)}, expected {n}")
    return [int(b) for b in bits]


def cost_of_bitstring(prob: IsingProblem, z) -> float:
    """Classical cost of a measured bitstring (string: qubit 0 rightmost)."""
    bits = _bits_from_key(z, prob.n)
    spins = [1 - 2 * b for b in bits]
    total = prob.constant
    for (i, j), value in prob.j:
        total += value * spins[i] * spins[j]
    for i, hi in enumerate(prob.h):
        total += hi * spins[i]
    return total


def cost_vector(prob: IsingProblem) -> np.ndarray:
    """Costs of all 2^n bitstrings, indexed by the little-endian integer."""
    if prob.n > MAX_ENUMERATION_QUBITS:
        raise TooLargeError(f"enumeration over {prob.n} qubits refused")
    idx = np.arange(2**prob.n)
    spins = 1 - 2 * ((idx[:, None] >> np.arange(prob.n)) & 1)
    costs = np.full(len(idx), float(prob.constant))
    for (i, j), value in prob.j:
        costs += value * spins[:, i] * spins[:, j]
    costs += spins @ np.asarray(prob.h, dtype=float)
    return costs


def optimal_cost(
    prob: IsingProblem, sense: str
) -> tuple[float, tuple[str, ...]]:
    """Exhaustive optimum (restricted to feasible weight when set)."""
    if sense not in ("min", "max"):
        raise ValidationError(f"sense must be 'min' or 'max', got {sense!r}")
    costs = cost_vector(prob)
    indices = np.arange(len(costs))
    if prob.feasible_weight is not None:
        weights = np.array([int(i).bit_count() for i in indices])
        keep = weights == prob.feasible_weight
        costs, indices = costs[keep], indices[keep]
    opt = float(costs.min() if sense == "min" else costs.max())
    tol = 1e-9 * max(1.0, abs(opt))
    winners = indices[np.abs(costs - opt) <= tol]
    strings = tuple(format(int(i), f"0{prob.n}b") for i in winners)
    return opt, strings


@dataclass(frozen=True)
class MetricsResult:
    """AR/SP of a distribution; mean and optimum are reported alongside."""

    ar: float | None
    sp: float
    feasible_fraction: float
    mean_cost: float
    opt_cost: float
    optimal_bitstrings: tuple[str, ...]
    sign_mixed: bool = False


def metrics(prob: IsingProblem, dist: dict[str, float], sense: str) -> MetricsResult:
    """Approximation ratio and success probability of an outcome distribution.

    The distribution maps bitstrings (qubit 0 rightmost) to non-negative
    weights; weights are normalized, so raw counts are accepted.  When the
    problem carries a feasibility budget, only bitstrings of that Hamming
    weight are kept (and renormalized).  AR is the post-selected mean cost
    over the exhaustive optimum; with a zero optimum AR is undefined and
    reported as None next to the absolute costs.
    """
    if not dist:
        raise ValidationError("empty distribution")
    total = 0.0
    for key, weight in dist.items():
        _bits_from_key(key, prob.n)
        if weight < 0:
            raise ValidationError(f"negative weight for {key!r}")
        total += weight
    if total <= 0:
        raise ValidationError("distribution has zero total weight")
    probs = {key: weight / total for key, weight in dist.items()}

    feasible_fraction = 1.0
    if prob.feasible_weight is not None:
        kept = {k: v for k, v in probs.items() if k.count("1") == prob.feasible_weight}
        feasible_fraction = sum(kept.values())
        if feasible_fraction <= 0:
            raise NoFeasibleOutcomeError(
                f"no outcome has Hamming weight {prob.feasible_weight}"
            )
        probs = {k: v / feasible_fraction for k, v in kept.items()}

    mean_cost = sum(p * cost_of_bitstring(prob, k) for k, p in probs.items())
    opt, optimal_strings = optimal_cost(prob, sense)
    sp = sum(probs.get(k, 0.0) for k in optimal_strings)
    if opt == 0.0:
        ar = None
        sign_mixed = False
    else:
        ar = mean_cost / opt
        sign_mixed = any(
            cost_of_bitstring(prob, k) * opt < 0 for k in probs
        )
    return MetricsResult(
        ar=ar,
        sp=sp,
        feasible_fraction=feasible_fraction,
        mean_cost=mean_cost,
        opt_cost=opt,
        optimal_bitstrings=optimal_strings,
        sign_mixed=sign_mixed,
    )


@dataclass(frozen=True)
class ProblemFile:
    """A problem loaded from JSON: the encoding plus its optimization sense."""

    ising: IsingProblem
    sense: str
    kind: str
    label: str


def problem_from_dict(doc: dict, label: str = "problem") -> ProblemFile:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseError("problem document must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "portopt":
        try:
            inst = PortfolioInstance(
                n=len(doc["mu"]),
                mu=tuple(float(v) for v in doc["mu"]),
                sigma=tuple(tuple(float(v) for v in row) for row in doc["sigma"]),
                q=float(doc["q"]),
                budget=int(doc["B"]),
                penalty=float(doc["A"]),
                lam=float(doc["lambda"]),
            )
        except KeyError as exc:
            raise ParseError(f"portopt problem missing field {exc.args[0]!r}") from exc
        return ProblemFile(encode_portopt(inst), sense="min", kind=kind, label=label)
    if kind == "maxcut":
        try:
            inst = MaxCutInstance(
                n=int(doc["n"]),
                edges=frozenset(
                    (min(int(i), int(j)), max(int(i), int(j))) for i, j in doc["edges"]
                ),
            )
        except KeyError as exc:
            raise ParseError(f"maxcut problem missing field {exc.args[0]!r}") from exc
        return ProblemFile(encode_maxcut(inst), sense="max", kind=kind, label=label)
    raise ParseError(f"unknown problem type {kind!r}")


def load_problem(path: str | Path) -> ProblemFile:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed problem JSON in {path}: {exc}") from exc
    return problem_from_dict(doc, label=path.stem)
