"""Variational parameter search and the strategy-comparison benchmark.

Parameters are trained on a noiseless exact-expectation evaluator (a coarse
deterministic grid seeds Nelder-Mead refinements), then frozen for the
noisy evaluation at the requested shot count.  The Nelder-Mead search is
this module's own and follows SciPy's ``_minimize_neldermead`` step for
step, so it evaluates the same points as SciPy would.  The evaluation
budget belongs to the objective alone: its trace counts the evaluations,
and the call that would exceed the budget raises instead, which ends the
grid or the search that made it.  The evaluator works in product form on
the precomputed diagonal cost, as QOKit does (Lykov et al.,
arXiv:2309.04841): no circuit is built per evaluation, and the outcome
distribution is reduced through the same ``qaoa.CostTable`` as ``metrics``.
Within a benchmark, the same chain is reused for every opt level and depth
of a strategy family.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from . import qaoa, sim
from .circuit import CircuitIR, require_dense
from .device import DeviceModel
from .errors import NoChainError, NoFeasibleOutcomeError, ValidationError
from .lower import LoweredCircuit, OptLevel, lower_circuit
from .mapper import ChainSelection, Strategy, fidelity_score, select
from .qaoa import IsingProblem, MetricsResult, ParamVector, ProblemFile

Evaluator = Callable[[ParamVector], MetricsResult]

#: how many of the best distinct seed points Nelder-Mead refines
REFINE_STARTS = 2

#: Nelder-Mead's stopping tolerance on the spread of objective values
FATOL = 1e-5

#: Nelder-Mead reflection, expansion, contraction and shrink coefficients
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget and grid resolution of the parameter search."""

    max_evals: int = 20000
    initial_grid: int = 8
    seed: int = 0


@dataclass(frozen=True)
class OptimizationResult:
    params: ParamVector
    ar: float | None  # None when no evaluated point has a defined AR
    trace: tuple[tuple[tuple[float, ...], float], ...]
    evaluations: int
    budget_exhausted: bool


def _to_params(flat: Sequence[float], p: int) -> ParamVector:
    return ParamVector(gammas=tuple(flat[:p]), betas=tuple(flat[p:]))


def exact_expectation_evaluator(prob: IsingProblem, sense: str) -> Evaluator:
    """Noiseless evaluator: exact metrics of the QAOA state in product form.

    The swap network is prod_k [RX(2 beta_k)^n exp(-i gamma_k (C - c))] on
    |+>^n times its final wire permutation, which the outcome distribution
    undoes (criterion 02).  The phase vector C - c, the cost table and the
    start state are built here, once.  Each call multiplies by the phases,
    rotates every qubit (psi <- cos(beta) psi - i sin(beta) X_q psi, X_q psi
    a gather at the index with bit q flipped) and reduces |psi|^2 through
    the table.  Sizes the circuit path refuses are refused here.
    """
    if prob.n < 2:
        raise ValidationError("swap network needs at least 2 qubits")
    require_dense(prob.n)
    table = qaoa.cost_table(prob, sense)
    phase = table.costs - prob.constant
    dim = 2**prob.n
    start = np.full(dim, dim**-0.5, dtype=complex)
    flips = [np.arange(dim) ^ (1 << q) for q in range(prob.n)]

    def evaluate(params: ParamVector) -> MetricsResult:
        if not np.isfinite(params.gammas + params.betas).all():
            raise ValidationError("QAOA angles must be finite")
        psi = start
        for gamma, beta in zip(params.gammas, params.betas):
            psi = psi * np.exp(-1j * gamma * phase)
            c, s = np.cos(beta), -1j * np.sin(beta)
            for flipped in flips:
                psi = c * psi + s * psi[flipped]
        return table.reduce(psi.real**2 + psi.imag**2)

    return evaluate


def _check_config(cfg: OptimizerConfig) -> None:
    if cfg.max_evals < 1:
        raise ValidationError(f"max-evals must be >= 1, got {cfg.max_evals}")
    # beyond 2**53 points per axis, neighbouring angles round to one float
    if not 1 <= cfg.initial_grid <= 2**53:
        raise ValidationError(f"--grid must be in 1..2**53, got {cfg.initial_grid}")


class _BudgetSpent(Exception):
    """The next objective call would exceed the evaluation budget."""


def _by_value(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(fsim)
    return np.take(sim, order, 0), np.take(fsim, order, 0)


def _nelder_mead(
    func: Callable[[np.ndarray], float], x0: np.ndarray, xatol: float, fatol: float
) -> None:
    """Minimize func from x0 by the Nelder-Mead simplex search (Nelder and
    Mead, Comput. J. 7, 308 (1965)) until the simplex converges.

    Follows SciPy's ``_minimize_neldermead`` with its default options step
    for step (initial simplex, arithmetic, unstable re-sort, stopping test),
    so func sees the same points, bit for bit.  The search counts nothing:
    func ends it early by raising ``_BudgetSpent``, which, like SciPy's
    ``maxfev``, abandons the call that would exceed the budget and the rest
    of its step.  The caller keeps what it needs from func's calls.
    """
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, dtype=float)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([func(x) for x in sim])
    # SciPy sorts twice before the first step and once after every step
    sim, fsim = _by_value(sim, fsim)
    while True:
        sim, fsim = _by_value(sim, fsim)
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            return
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + RHO) * xbar - RHO * sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = (1 + RHO * CHI) * xbar - RHO * CHI * sim[-1]
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + PSI * RHO) * xbar - PSI * RHO * sim[-1]
                fxc = func(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - PSI) * xbar + PSI * sim[-1]
                fxc = func(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + SIGMA * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])


def optimize_params(
    prob: IsingProblem,
    p: int,
    evaluator: Evaluator,
    cfg: OptimizerConfig,
    warm_starts: Sequence[ParamVector] = (),
) -> OptimizationResult:
    """Maximize AR over [0, pi)^p x [0, pi/2)^p, grid then Nelder-Mead.

    warm_starts are extra seed points (e.g. a lower depth's optimum padded
    with zero layers).  Runs deterministically; if the evaluation budget is
    exhausted the best point so far is returned, flagged.
    """
    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    _check_config(cfg)
    trace: list[tuple[tuple[float, ...], float]] = []

    def objective(flat: Sequence[float]) -> float:
        if len(trace) == cfg.max_evals:
            raise _BudgetSpent
        result = evaluator(_to_params(flat, p))
        value = result.ar if result.ar is not None else -np.inf
        trace.append((tuple(float(v) for v in flat), value))
        return -value

    # grid^(2p) points in row-major order, made only as far as the budget
    grid = cfg.initial_grid
    grid_points = (
        tuple(np.pi * i / grid for i in index[:p])
        + tuple(np.pi / 2 * i / grid for i in index[p:])
        for index in itertools.product(range(grid), repeat=2 * p)
    )
    seed_points = itertools.chain(
        (tuple(w.gammas) + tuple(w.betas) for w in warm_starts), grid_points
    )
    skipped = False
    with contextlib.suppress(_BudgetSpent):
        for point in seed_points:
            objective(point)
        # the best distinct points, ties in trace order; nothing to refine
        # where AR is undefined
        finite = {flat: value for flat, value in trace if np.isfinite(value)}
        for start in sorted(finite, key=lambda flat: -finite[flat])[:REFINE_STARTS]:
            if cfg.max_evals - len(trace) <= 1:
                skipped = True
                break
            _nelder_mead(objective, np.array(start), xatol=1e-4, fatol=FATOL)

    best_flat, best_value = max(trace, key=lambda t: t[1])
    return OptimizationResult(
        params=_to_params(best_flat, p),
        ar=best_value if np.isfinite(best_value) else None,
        trace=tuple(trace),
        evaluations=len(trace),
        budget_exhausted=skipped or len(trace) >= cfg.max_evals,
    )


def cell_seed(master_seed: int, *key_parts) -> int:
    """Stable per-cell RNG seed derived from the master seed and cell key."""
    text = "|".join(str(part) for part in (master_seed,) + key_parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def evaluate_noisy(
    dev: DeviceModel,
    chain: Sequence[int],
    prob: IsingProblem,
    sense: str,
    params: ParamVector,
    opt: OptLevel,
    shots: int,
    seed: int,
    noise_scale: float,
) -> tuple[MetricsResult, LoweredCircuit]:
    """Noisy evaluation of frozen parameters on a fixed chain.

    Pipeline: build, lower, then ``sim.run_noisy`` (density-matrix
    evolution, sampling through the scaled confusion matrices, readout
    mitigation), then budget post-selection.
    """
    circ = qaoa.build_swap_network(prob, params)
    lowered = lower_circuit(circ, tuple(chain), dev, opt)
    _, logical = sim.run_noisy(lowered, dev, shots, seed, noise_scale)
    return qaoa.metrics(prob, logical, sense), lowered


@dataclass(frozen=True)
class BenchmarkRun:
    """One benchmark cell: a (strategy, opt level, depth) combination."""

    problem: str
    strategy: Strategy
    opt_level: OptLevel
    p: int
    chain: tuple[int, ...]
    gammas: tuple[float, ...]
    betas: tuple[float, ...]
    ar: float | None
    sp: float | None
    duration_ns: float | None
    cx_count: int | None
    fidelity_score: float | None
    shots: int
    seed: int
    optimizer: str = "grid+nelder-mead"
    reason: str = ""

    def to_dict(self) -> dict:
        """JSON row in column order: enums by value, tuples as lists."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        return row | {
            "strategy": self.strategy.value,
            "opt_level": self.opt_level.value,
            "chain": list(self.chain),
            "gammas": list(self.gammas),
            "betas": list(self.betas),
        }


CSV_COLUMNS = [f.name for f in fields(BenchmarkRun)]

#: template angles used only to rank chain durations during selection
SELECTION_TEMPLATE_ANGLES = (np.pi / 2, np.pi / 2)


def selection_template(prob: IsingProblem) -> CircuitIR:
    """Depth-1 circuit at the template angles, the circuit chains are scored on."""
    gamma, beta = SELECTION_TEMPLATE_ANGLES
    return qaoa.build_swap_network(prob, ParamVector((gamma,), (beta,)))


def selection_opt_level(strategy: Strategy) -> OptLevel:
    """Bipotent ranks chains by pulse-optimized duration; others by fidelity."""
    return OptLevel.ZZ_SWAP_OPT if strategy is Strategy.BIPOTENT else OptLevel.DEFAULT


def select_chain_for(
    dev: DeviceModel, prob: IsingProblem, strategy: Strategy
) -> ChainSelection:
    return select(
        dev, prob.n, strategy, selection_template(prob), selection_opt_level(strategy)
    )


def optimize_depth_sweep(
    prob: IsingProblem, sense: str, p_values: Sequence[int], cfg: OptimizerConfig
) -> dict[int, OptimizationResult]:
    """Noiseless optimum per depth, warm-starting each depth from the last."""
    _check_config(cfg)
    evaluator = exact_expectation_evaluator(prob, sense)
    optimized: dict[int, OptimizationResult] = {}
    previous: OptimizationResult | None = None
    for p in sorted(set(p_values)):
        warm = []
        if previous is not None:
            warm.append(
                ParamVector(
                    previous.params.gammas + (0.0,) * (p - previous.params.p),
                    previous.params.betas + (0.0,) * (p - previous.params.p),
                )
            )
        level_cfg = replace(cfg, initial_grid=max(2, cfg.initial_grid // p))
        result = optimize_params(prob, p, evaluator, level_cfg, warm_starts=warm)
        optimized[p] = result
        previous = result
    return optimized


def run_benchmark(
    dev: DeviceModel,
    problem: ProblemFile,
    strategies: Sequence[Strategy],
    opt_levels: Sequence[OptLevel],
    p_values: Sequence[int],
    cfg: OptimizerConfig,
    shots: int,
    noise_scale: float = 1.0,
) -> list[BenchmarkRun]:
    """Benchmark sweep over strategies, opt levels and depths.

    Shots and noise scale are checked before training.  Parameters are
    optimized noiselessly once per depth (warm-started from the previous
    depth) and reused across every strategy and opt level; each cell then
    gets one seeded noisy evaluation.  A cell without results gives the
    reason: no chain (the row's chain is empty) or no outcome kept by
    post-selection.  Rows come back sorted by (problem, strategy, opt level, p).
    """
    if not strategies or not opt_levels or not p_values:
        raise ValidationError("strategies, opt levels and p range must be non-empty")
    if any(p < 1 for p in p_values):
        raise ValidationError("p values must be >= 1")
    sim.check_shots(shots)
    sim.check_noise_scale(noise_scale)
    optimized = optimize_depth_sweep(problem.ising, problem.sense, p_values, cfg)

    no_results = dict.fromkeys(("ar", "sp", "duration_ns", "cx_count", "fidelity_score"))
    rows = []
    for strategy in strategies:
        try:
            chain, no_chain = select_chain_for(dev, problem.ising, strategy).chain, ""
        except NoChainError as exc:
            chain, no_chain = (), str(exc)
        for opt, p in itertools.product(opt_levels, p_values):
            params = optimized[p].params
            seed = cell_seed(cfg.seed, problem.label, strategy.value, opt.value, p)
            reason, results = no_chain, no_results
            if chain:
                try:
                    result, lowered = evaluate_noisy(
                        dev, chain, problem.ising, problem.sense, params, opt, shots,
                        seed, noise_scale,
                    )
                except NoFeasibleOutcomeError as exc:
                    reason = str(exc)
                else:
                    results = dict(
                        ar=result.ar, sp=result.sp,
                        duration_ns=lowered.total_duration_ns, cx_count=lowered.cx_count,
                        fidelity_score=fidelity_score(dev, chain, lowered),
                    )
            rows.append(BenchmarkRun(
                problem=problem.label, strategy=strategy, opt_level=opt, p=p, chain=chain,
                gammas=params.gammas, betas=params.betas, shots=shots, seed=seed,
                reason=reason, **results,
            ))
    rows.sort(key=lambda r: (r.problem, r.strategy.value, r.opt_level.value, r.p))
    return rows


def _format_value(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def runs_to_csv(rows: Sequence[BenchmarkRun]) -> str:
    """Deterministic CSV: byte-identical for identical inputs and seeds."""
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        cells = row.to_dict() | {
            "chain": "-".join(str(q) for q in row.chain),
            "gammas": ";".join(repr(g) for g in row.gammas),
            "betas": ";".join(repr(b) for b in row.betas),
        }
        out.write(",".join(_format_value(cells[c]) for c in CSV_COLUMNS) + "\n")
    return out.getvalue()
