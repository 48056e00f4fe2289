"""Problem encodings, the linear swap-network ansatz, and outcome metrics.

Spin convention: bit 0 maps to spin +1 and bit 1 to spin -1 (computational
|0> is the Z eigenvalue +1 state).  This single convention is shared by the
encoders, the cost vector, and the metrics.  Outcome distributions are
vectors indexed by the little-endian basis integer (qubit 0 is bit 0).

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
    NoFeasibleOutcomeError,
    TooLargeError,
    ValidationError,
    as_float,
    as_int,
    as_list,
    as_object,
)

MAX_ENUMERATION_QUBITS = 20
#: Largest MaxCut node count a problem document may state.  The count is a
#: number, not a list of nodes, so nothing else in the document bounds it,
#: and the encoding allocates per node and the swap network n(n-1)/2 gates
#: per QAOA layer.  No device the pipeline maps onto comes near this many qubits.
MAX_MAXCUT_NODES = 1024


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
            raise ValidationError(f"mu: has length {len(self.mu)}, expected {self.n}")
        if len(self.sigma) != self.n or any(len(row) != self.n for row in self.sigma):
            raise ValidationError(f"sigma: must be {self.n}x{self.n}")
        for i in range(self.n):
            for j in range(self.n):
                if abs(self.sigma[i][j] - self.sigma[j][i]) > 1e-12:
                    raise ValidationError(f"sigma: not symmetric at ({i}, {j})")
        if not 0 <= self.q <= 1:
            raise ValidationError(f"q: risk preference {self.q} not in [0, 1]")
        if not 0 < self.budget < self.n:
            raise ValidationError(f"B: budget {self.budget} not in (0, {self.n})")
        if self.penalty < 0:
            raise ValidationError(f"A: penalty {self.penalty} must be >= 0")
        if self.lam <= 0:
            raise ValidationError(f"lambda: scaling factor {self.lam} must be > 0")


@dataclass(frozen=True)
class MaxCutInstance:
    """An unweighted simple graph for MaxCut."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for (i, j) in self.edges:
            if i == j:
                raise ValidationError(f"edges: self-loop on node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValidationError(f"edges: ({i}, {j}) outside 0..{self.n - 1}")
            if i > j:
                raise ValidationError(f"edges: ({i}, {j}) must be ordered i < j")


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
            raise ValidationError(f"h has length {len(self.h)}, expected {self.n}")
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
        if self.feasible_weight is not None and not 0 <= self.feasible_weight <= self.n:
            raise ValidationError(
                f"feasible weight {self.feasible_weight} not in [0, {self.n}]"
            )

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
            raise ValidationError(
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


def cost_vector(prob: IsingProblem) -> np.ndarray:
    """Costs of all 2^n outcomes, indexed by the little-endian integer."""
    if prob.n > MAX_ENUMERATION_QUBITS:
        raise TooLargeError(f"enumeration over {prob.n} qubits refused")
    idx = np.arange(2**prob.n)
    spins = 1 - 2 * ((idx[:, None] >> np.arange(prob.n)) & 1)
    costs = np.full(len(idx), float(prob.constant))
    for (i, j), value in prob.j:
        costs += value * spins[:, i] * spins[:, j]
    costs += spins @ np.asarray(prob.h, dtype=float)
    return costs


def _feasible_mask(prob: IsingProblem) -> np.ndarray:
    """Outcomes kept by budget post-selection (every outcome without a budget)."""
    idx = np.arange(2**prob.n)
    if prob.feasible_weight is None:
        return np.ones(len(idx), dtype=bool)
    weights = ((idx[:, None] >> np.arange(prob.n)) & 1).sum(axis=1)
    return weights == prob.feasible_weight


def optimal_cost(
    costs: np.ndarray, feasible: np.ndarray, sense: str
) -> tuple[float, np.ndarray]:
    """Exhaustive optimum over the feasible outcomes and the indices attaining it."""
    if sense not in ("min", "max"):
        raise ValidationError(f"sense must be 'min' or 'max', got {sense!r}")
    indices = np.flatnonzero(feasible)
    costs = costs[indices]
    opt = float(costs.min() if sense == "min" else costs.max())
    tol = 1e-9 * max(1.0, abs(opt))
    return opt, indices[np.abs(costs - opt) <= tol]


@dataclass(frozen=True)
class MetricsResult:
    """AR/SP of a distribution; mean and optimum are reported alongside."""

    ar: float | None
    sp: float
    feasible_fraction: float
    mean_cost: float
    opt_cost: float


@dataclass(frozen=True)
class CostTable:
    """Per-problem tables every outcome distribution is reduced through."""

    costs: np.ndarray
    #: outcomes kept by budget post-selection, or None without a budget
    feasible: np.ndarray | None
    feasible_weight: int | None
    opt: float
    winners: np.ndarray

    def reduce(self, weights: np.ndarray) -> MetricsResult:
        """Metrics of non-negative weights, normalized and post-selected here."""
        total = weights.sum()
        if total <= 0:
            raise ValidationError("distribution has zero total weight")
        weights = weights / total
        feasible_fraction = 1.0
        if self.feasible is not None:
            weights = np.where(self.feasible, weights, 0.0)
            feasible_fraction = float(weights.sum())
            if feasible_fraction <= 0:
                raise NoFeasibleOutcomeError(
                    f"no outcome has Hamming weight {self.feasible_weight}"
                )
            weights = weights / feasible_fraction
        mean_cost = float(weights @ self.costs)
        return MetricsResult(
            ar=None if self.opt == 0.0 else mean_cost / self.opt,
            sp=float(weights[self.winners].sum()),
            feasible_fraction=feasible_fraction,
            mean_cost=mean_cost,
            opt_cost=self.opt,
        )


def cost_table(prob: IsingProblem, sense: str) -> CostTable:
    """Costs, feasibility mask, optimum and winners of a problem, built once."""
    costs = cost_vector(prob)
    feasible = _feasible_mask(prob)
    opt, winners = optimal_cost(costs, feasible, sense)
    return CostTable(
        costs=costs,
        feasible=None if prob.feasible_weight is None else feasible,
        feasible_weight=prob.feasible_weight,
        opt=opt,
        winners=winners,
    )


def metrics(prob: IsingProblem, probs, sense: str) -> MetricsResult:
    """Approximation ratio and success probability of an outcome distribution.

    ``probs`` holds a non-negative weight per outcome, indexed by the
    little-endian basis integer (length 2^n); weights are normalized, so raw
    counts are accepted.  When the problem carries a feasibility budget, only
    outcomes of that Hamming weight are kept (and renormalized).  AR is the
    post-selected mean cost over the exhaustive optimum; with a zero optimum
    AR is undefined and reported as None next to the absolute costs.
    """
    weights = np.asarray(probs, dtype=float)
    if weights.shape != (2**prob.n,):
        raise ValidationError(
            f"distribution has shape {weights.shape}, expected ({2**prob.n},)"
        )
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise ValidationError("distribution weights must be finite and >= 0")
    return cost_table(prob, sense).reduce(weights)


@dataclass(frozen=True)
class ProblemFile:
    """A problem loaded from JSON: the encoding plus its optimization sense."""

    ising: IsingProblem
    sense: str
    kind: str
    label: str


def problem_from_dict(doc: dict, label: str = "problem") -> ProblemFile:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValidationError("problem document must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "portopt":
        as_object(doc, "", ("type", "mu", "sigma", "q", "B", "A", "lambda"))
        try:
            mu = tuple(
                as_float(v, f"mu[{i}]") for i, v in enumerate(as_list(doc["mu"], "mu"))
            )
            sigma = tuple(
                tuple(
                    as_float(v, f"sigma[{i}][{j}]")
                    for j, v in enumerate(as_list(row, f"sigma[{i}]"))
                )
                for i, row in enumerate(as_list(doc["sigma"], "sigma"))
            )
            inst = PortfolioInstance(
                n=len(mu),
                mu=mu,
                sigma=sigma,
                q=as_float(doc["q"], "q"),
                budget=as_int(doc["B"], "B"),
                penalty=as_float(doc["A"], "A"),
                lam=as_float(doc["lambda"], "lambda"),
            )
        except KeyError as exc:
            raise ValidationError(f"portopt problem missing field {exc.args[0]!r}") from exc
        return ProblemFile(encode_portopt(inst), sense="min", kind=kind, label=label)
    if kind == "maxcut":
        as_object(doc, "", ("type", "n", "edges"))
        try:
            n = as_int(doc["n"], "n")
            if not 1 <= n <= MAX_MAXCUT_NODES:
                message = f"n: {doc['n']!r} not in 1..{MAX_MAXCUT_NODES}"
                raise ValidationError(message)
            edges = set()
            for k, edge in enumerate(as_list(doc["edges"], "edges")):
                pair = as_list(edge, f"edges[{k}]")
                if len(pair) != 2:
                    raise ValidationError(
                        f"edges[{k}]: expected 2 nodes, got {len(pair)}"
                    )
                i, j = (as_int(v, f"edges[{k}][{m}]") for m, v in enumerate(pair))
                edges.add((min(i, j), max(i, j)))
        except KeyError as exc:
            raise ValidationError(f"maxcut problem missing field {exc.args[0]!r}") from exc
        inst = MaxCutInstance(n=n, edges=frozenset(edges))
        return ProblemFile(encode_maxcut(inst), sense="max", kind=kind, label=label)
    raise ValidationError(f"unknown problem type {kind!r}")


def load_problem(path: str | Path) -> ProblemFile:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read problem file {path}: {exc}") from exc
    except ValueError as exc:  # also a number too long to convert
        raise ValidationError(f"malformed problem JSON in {path}: {exc}") from exc
    return problem_from_dict(doc, label=path.stem)
