"""Linear-chain enumeration and the four chain-selection strategies.

EcrOnly / DirectOnly / Global pick the maximum-fidelity chain (flavor
filtered, or unrestricted).  Bipotent restricts to chains whose qubits have
below-device-mean single-qubit error and whose links have below-mean CX
error, requires both gate flavors, and minimizes the lowered circuit's
schedule duration.  Enumeration is exhaustive; ties break deterministically
(higher fidelity, then lexicographically smaller chain).  A chain is scored
without lowering the whole circuit: each distinct gate placement is lowered
once per selection, and the products and schedules of all chains run as arrays.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitIR, GateKind
from .device import DeviceModel, GateFlavor
from .errors import NoChainError, ValidationError
from .lower import LoweredCircuit, LoweredUnit, OptLevel, lower_gate


class Strategy(enum.Enum):
    ECR_ONLY = "ecr"
    DIRECT_ONLY = "direct"
    GLOBAL = "global"
    BIPOTENT = "bipotent"


@dataclass(frozen=True)
class ChainSelection:
    """A selected chain and the scores that selected it."""

    chain: tuple[int, ...]
    strategy: Strategy
    fidelity_score: float
    duration_ns: float
    flavors: tuple[GateFlavor, ...]
    constraints_applied: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "chain": list(self.chain),
            "strategy": self.strategy.value,
            "fidelity_score": self.fidelity_score,
            "duration_ns": self.duration_ns,
            "flavors": [f.value for f in self.flavors],
            "constraints_applied": list(self.constraints_applied),
        }


def enumerate_chains(
    dev: DeviceModel, k: int, flavor_filter: GateFlavor | None = None
) -> list[tuple[int, ...]]:
    """All simple k-vertex paths, one orientation each, sorted.

    Canonical orientation starts at the lexicographically smaller endpoint.
    With a flavor filter, every link must carry that flavor.
    """
    if not 2 <= k <= dev.num_qubits:
        raise ValidationError(f"chain length {k} not in 2..{dev.num_qubits}")
    adjacency: dict[int, list[int]] = {q: [] for q in range(dev.num_qubits)}
    for edge in dev.edges:
        if flavor_filter is not None and edge.flavor is not flavor_filter:
            continue
        a, b = edge.pair
        adjacency[a].append(b)
        adjacency[b].append(a)

    chains: list[tuple[int, ...]] = []

    def extend(path: list[int]) -> None:
        if len(path) == k:
            if path[0] < path[-1]:
                chains.append(tuple(path))
            return
        for neighbour in adjacency[path[-1]]:
            if neighbour not in path:
                path.append(neighbour)
                extend(path)
                path.pop()

    for start in range(dev.num_qubits):
        extend([start])
    return sorted(chains)


def chain_flavors(dev: DeviceModel, chain: tuple[int, ...]) -> tuple[GateFlavor, ...]:
    return tuple(
        dev.edge_between(a, b).flavor for a, b in zip(chain, chain[1:])
    )


def _survival(dev: DeviceModel, unit: LoweredUnit) -> float:
    """A unit's survival probability; a measurement's is its readout's."""
    if unit.kind is GateKind.MEASURE:
        return 1.0 - dev.qubits[unit.physical[0]].readout_error
    return 1.0 - unit.error


def fidelity_score(
    dev: DeviceModel, chain: tuple[int, ...], lowered: LoweredCircuit
) -> float:
    """Product of unit survival probabilities and readout survivals."""
    return math.prod((_survival(dev, unit) for unit in lowered.units), start=1.0)


def _scored(
    dev: DeviceModel, chains: list[tuple[int, ...]], benchmark: CircuitIR, opt: OptLevel
) -> list[tuple[tuple[int, ...], float, float]]:
    """(chain, fidelity score, schedule duration) of each chain.

    ``lower_gate`` runs once per (kind, param, physical qubits), in tables
    local to the call.  The template is walked once, each gate over all
    chains at a time: survivals multiply in gate order and the recurrence
    of ``circuit.asap_start_times`` runs per chain, as lowering would.
    """
    columns = list(zip(*chains))  # per wire, its qubit on each chain
    score = np.ones(len(chains))
    total = np.zeros(len(chains))
    free = np.zeros((len(columns), len(chains)))
    tables: dict[tuple, tuple[dict, dict]] = {}
    for g in benchmark.gates:
        durations, survivals = tables.setdefault((g.kind, g.param), ({}, {}))
        placements = list(zip(*map(columns.__getitem__, g.qubits)))
        for chain, p in zip(chains, placements):
            if p not in durations:
                unit = lower_gate(g, chain, dev, opt)
                durations[p], survivals[p] = unit.duration_ns, _survival(dev, unit)
        score *= np.fromiter(map(survivals.__getitem__, placements), float, len(chains))
        start = functools.reduce(np.maximum, map(free.__getitem__, g.qubits))
        end = start + np.fromiter(map(durations.__getitem__, placements), float, len(chains))
        for w in g.qubits:
            free[w] = end
        np.maximum(total, end, out=total)
    return list(zip(chains, score.tolist(), total.tolist()))


#: strategy -> (link flavor filter, constraints, no-chain message); the
#: strategies missing here enumerate every chain
_ENUMERATION = {
    Strategy.ECR_ONLY: (
        GateFlavor.ECR_CX, ("links: ecr only",),
        "no {k}-qubit chain with only ECR-CX links",
    ),
    Strategy.DIRECT_ONLY: (
        GateFlavor.DIRECT_CX, ("links: direct only",),
        "no {k}-qubit chain with only direct-CX links",
    ),
}
_ANY_CHAIN = (None, (), "device has no {k}-qubit chain")


def select(
    dev: DeviceModel,
    k: int,
    strategy: Strategy,
    benchmark: CircuitIR,
    opt: OptLevel = OptLevel.DEFAULT,
) -> ChainSelection:
    """Pick a k-qubit chain for the benchmark circuit under one strategy."""
    if benchmark.num_qubits != k:
        raise ValidationError(
            f"benchmark circuit has {benchmark.num_qubits} wires, expected {k}"
        )
    flavor_filter, constraint, missing = _ENUMERATION.get(strategy, _ANY_CHAIN)
    candidates = enumerate_chains(dev, k, flavor_filter)
    if not candidates:
        raise NoChainError(missing.format(k=k))
    constraints = list(constraint)

    if strategy is Strategy.BIPOTENT:
        mean_sx = dev.mean_sx_error()
        mean_cx = dev.mean_cx_error()
        constraints.extend(
            [
                f"qubit sx_error < device mean {mean_sx:.6g}",
                f"link cx_error < device mean {mean_cx:.6g}",
                "links: at least one ecr and one direct",
            ]
        )
        below_error = [
            chain
            for chain in candidates
            if all(dev.qubits[q].sx_error < mean_sx for q in chain)
            and all(
                dev.edge_between(a, b).cx_error < mean_cx
                for a, b in zip(chain, chain[1:])
            )
        ]
        if not below_error:
            raise NoChainError(
                f"no {k}-qubit chain with below-mean qubit and link errors"
            )
        mixed = [
            chain
            for chain in below_error
            if len(set(chain_flavors(dev, chain))) == 2
        ]
        if not mixed:
            raise NoChainError(
                f"no below-mean {k}-qubit chain mixing ECR-CX and direct-CX links"
            )
        rows = _scored(dev, mixed, benchmark, opt)
        # shortest schedule; ties to higher fidelity, then lexicographic
        best = min(rows, key=lambda row: (row[2], -row[1], row[0]))
    else:
        rows = _scored(dev, candidates, benchmark, opt)
        # highest fidelity; ties to the lexicographically smaller chain
        best = min(rows, key=lambda row: (-row[1], row[0]))

    chain, score, duration = best
    return ChainSelection(
        chain=chain,
        strategy=strategy,
        fidelity_score=score,
        duration_ns=duration,
        flavors=chain_flavors(dev, chain),
        constraints_applied=tuple(constraints),
    )
