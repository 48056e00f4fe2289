"""Command-line front end for the compilation and evaluation pipeline.

Exit codes: 0 success, 2 configuration error, 3 infeasible request,
4 internal invariant breach.  `--seed` falls back to the BQAOA_SEED
environment variable.  Bitstrings in every output read qubit 0 rightmost.
"""

from __future__ import annotations

import functools
import json
import sys
import traceback

import click
import numpy as np

from . import circuit as cir
from . import optimize as opt_mod
from . import qaoa, sim
from .circuit import GateKind
from .device import load_device, qubit_class, summarize
from .errors import CONFIG_ERRORS, INFEASIBLE_ERRORS, ConfigError
from .lower import OptLevel, lower_circuit
from .mapper import Strategy, fidelity_score, select
from .optimize import OptimizerConfig
from .qaoa import ParamVector, load_problem

OPT_CHOICES = {level.value: level for level in OptLevel}
STRATEGY_CHOICES = {s.value: s for s in Strategy}


def handles_errors(fn):
    """Map package exceptions to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CONFIG_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except INFEASIBLE_ERRORS as exc:
            click.echo(f"infeasible: {exc}", err=True)
            sys.exit(3)
        except click.ClickException:
            raise
        except Exception as exc:  # internal invariant breach
            click.echo(f"internal error: {exc}", err=True)
            traceback.print_exc()
            sys.exit(4)

    return wrapper


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def _parse_range(text: str, name: str) -> list[int]:
    """Integers >= 1 from ``lo..hi`` or a comma list; ``name`` labels errors."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name} range {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"{name} range {text!r} must contain integers >= 1")
    return values


def _parse_angles(
    text: str | None, p: int, fallback: float, name: str
) -> tuple[float, ...]:
    """``p`` comma-separated finite angles; ``name`` labels errors."""
    if text is None:
        return (fallback,) * p
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name} {text!r}") from exc
    if not all(np.isfinite(values)):
        raise ConfigError(f"{name} {text!r} must be finite")
    if len(values) != p:
        raise ConfigError(f"expected {p} comma-separated angles, got {len(values)}")
    return values


def _parse_params(p: int, gammas: str | None, betas: str | None) -> ParamVector:
    """Angles from ``--gammas``/``--betas``; 0.5 and 0.3 per layer by default."""
    gamma_values = _parse_angles(gammas, p, 0.5, "--gammas")
    return ParamVector(gamma_values, _parse_angles(betas, p, 0.3, "--betas"))


def _parse_chain(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.replace("-", ",").split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse chain {text!r}") from exc


seed_option = click.option(
    "--seed", type=int, envvar="BQAOA_SEED", default=1234, show_default=True,
    help="RNG seed (env fallback: BQAOA_SEED).",
)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
    show_default=True,
)
output_option = click.option(
    "-o", "--output", type=click.Path(dir_okay=False), default=None,
    help="Write to a file instead of stdout.",
)
opt_option = click.option(
    "--opt", "opt_name", type=click.Choice(sorted(OPT_CHOICES)), default="default",
    show_default=True, help="Pulse-optimization level for lowering.",
)


@click.group()
def main() -> None:
    """Compile and evaluate swap-network QAOA circuits on bipotent devices."""


@main.group()
def device() -> None:
    """Device-file operations."""


@device.command("summarize")
@click.argument("device_path", type=click.Path(exists=True, dir_okay=False))
@format_option
@output_option
@handles_errors
def device_summarize(device_path, fmt, output):
    """Mean calibration values per gate flavor and qubit class."""
    dev = load_device(device_path)
    summary = summarize(dev)
    doc = {
        "name": dev.name,
        "num_qubits": dev.num_qubits,
        "qubit_classes": {
            str(q): qubit_class(dev, q).value for q in range(dev.num_qubits)
        },
        "by_flavor": {
            flavor.value: {
                "count": row.count,
                "mean_cx_error": row.mean_cx_error,
                "mean_cx_duration_ns": row.mean_cx_duration_ns,
            }
            for flavor, row in summary.by_flavor.items()
        },
        "by_class": {
            cls.value: {
                "count": row.count,
                "mean_t1_us": row.mean_t1_us,
                "mean_t2_us": row.mean_t2_us,
                "mean_sx_error": row.mean_sx_error,
                "mean_readout_error": row.mean_readout_error,
            }
            for cls, row in summary.by_class.items()
        },
        "cx_error_reduction_pct": summary.cx_error_reduction_pct,
        "cx_duration_reduction_pct": summary.cx_duration_reduction_pct,
    }
    if fmt == "json":
        _emit(json.dumps(doc, indent=2) + "\n", output)
        return
    lines = ["group,count,mean_cx_error,mean_cx_duration_ns"]
    for flavor, row in summary.by_flavor.items():
        lines.append(
            f"{flavor.value},{row.count},{row.mean_cx_error!r},{row.mean_cx_duration_ns!r}"
        )
    lines.append("group,count,mean_t1_us,mean_t2_us,mean_sx_error,mean_readout_error")
    for cls, row in summary.by_class.items():
        lines.append(
            f"{cls.value},{row.count},{row.mean_t1_us!r},{row.mean_t2_us!r},"
            f"{row.mean_sx_error!r},{row.mean_readout_error!r}"
        )
    _emit("\n".join(lines) + "\n", output)


@main.group()
def chains() -> None:
    """Chain enumeration and selection."""


@chains.command("select")
@click.option("--device", "device_path", type=click.Path(exists=True), required=True)
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option(
    "--strategy", type=click.Choice(sorted(STRATEGY_CHOICES)), required=True
)
@opt_option
@output_option
@handles_errors
def chains_select(device_path, problem_path, strategy, opt_name, output):
    """Select a chain for a problem under one strategy."""
    dev = load_device(device_path)
    problem = load_problem(problem_path)
    selection = select(
        dev, problem.ising.n, STRATEGY_CHOICES[strategy],
        opt_mod.selection_template(problem.ising), OPT_CHOICES[opt_name],
    )
    _emit(json.dumps(selection.to_dict(), indent=2) + "\n", output)


@main.group()
def circuit() -> None:
    """Circuit construction and lowering."""


@circuit.command("build")
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option("--p", "p", type=int, default=1, show_default=True)
@click.option("--gammas", default=None, help="Comma-separated angles, one per layer.")
@click.option("--betas", default=None, help="Comma-separated angles, one per layer.")
@output_option
@handles_errors
def circuit_build(problem_path, p, gammas, betas, output):
    """Build the swap-network circuit and dump it as text."""
    problem = load_problem(problem_path)
    params = _parse_params(p, gammas, betas)
    circ = qaoa.build_swap_network(problem.ising, params)
    _emit(cir.to_text(circ), output)


@circuit.command("lower")
@click.option("--device", "device_path", type=click.Path(exists=True), required=True)
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option("--chain", "chain_text", required=True, help="e.g. 9,8,11,14,16")
@click.option("--p", "p", type=int, default=1, show_default=True)
@click.option("--gammas", default=None)
@click.option("--betas", default=None)
@opt_option
@output_option
@handles_errors
def circuit_lower(device_path, problem_path, chain_text, p, gammas, betas, opt_name, output):
    """Lower the built circuit onto a chain; emit the lowering report."""
    dev = load_device(device_path)
    problem = load_problem(problem_path)
    params = _parse_params(p, gammas, betas)
    circ = qaoa.build_swap_network(problem.ising, params)
    lowered = lower_circuit(circ, _parse_chain(chain_text), dev, OPT_CHOICES[opt_name])
    doc = {
        "chain": list(lowered.chain),
        "opt": lowered.opt.value,
        "total_duration_ns": lowered.total_duration_ns,
        "cx_count": lowered.cx_count,
        "fidelity_score": fidelity_score(dev, lowered.chain, lowered),
        "gates": lowered.report(),
    }
    _emit(json.dumps(doc, indent=2) + "\n", output)


@main.command("estimate")
@click.option("--device", "device_path", type=click.Path(exists=True), required=True)
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option(
    "--strategy", type=click.Choice(sorted(STRATEGY_CHOICES)), default="global",
    show_default=True,
)
@click.option("--chain", "chain_text", default=None, help="Bypass selection.")
@click.option("--p", "p", type=int, default=1, show_default=True)
@click.option("--gammas", default=None)
@click.option("--betas", default=None)
@opt_option
@output_option
@handles_errors
def estimate(device_path, problem_path, strategy, chain_text, p, gammas, betas, opt_name, output):
    """Duration, CX count and fidelity score of the lowered circuit."""
    dev = load_device(device_path)
    problem = load_problem(problem_path)
    params = _parse_params(p, gammas, betas)
    circ = qaoa.build_swap_network(problem.ising, params)
    if chain_text is not None:
        chain = _parse_chain(chain_text)
    else:
        chain = opt_mod.select_chain_for(
            dev, problem.ising, STRATEGY_CHOICES[strategy]
        ).chain
    lowered = lower_circuit(circ, chain, dev, OPT_CHOICES[opt_name])
    doc = {
        "chain": list(chain),
        "strategy": strategy if chain_text is None else "explicit-chain",
        "opt": opt_name,
        "p": p,
        "duration_ns": lowered.total_duration_ns,
        "cx_count": lowered.cx_count,
        "fidelity_score": fidelity_score(dev, chain, lowered),
        "gates": lowered.report(),
    }
    _emit(json.dumps(doc, indent=2) + "\n", output)


@main.command("simulate")
@click.option("--device", "device_path", type=click.Path(exists=True), required=True)
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option("--chain", "chain_text", required=True)
@click.option("--p", "p", type=int, default=1, show_default=True)
@click.option("--gammas", default=None)
@click.option("--betas", default=None)
@click.option("--shots", type=int, default=50000, show_default=True)
@click.option("--noise-scale", type=float, default=1.0, show_default=True)
@click.option(
    "--mitigate/--no-mitigate", default=True, show_default=True,
    help="Invert readout confusion before computing metrics.",
)
@opt_option
@seed_option
@output_option
@handles_errors
def simulate(device_path, problem_path, chain_text, p, gammas, betas, shots,
             noise_scale, mitigate, opt_name, seed, output):
    """Noisy density-matrix simulation: counts and AR/SP metrics."""
    dev = load_device(device_path)
    problem = load_problem(problem_path)
    params = _parse_params(p, gammas, betas)
    chain = _parse_chain(chain_text)
    circ = qaoa.build_swap_network(problem.ising, params)
    lowered = lower_circuit(circ, chain, dev, OPT_CHOICES[opt_name])
    counts, logical = sim.run_noisy(lowered, dev, shots, seed, noise_scale, mitigate)
    result = qaoa.metrics(problem.ising, logical, problem.sense)
    doc = {
        "counts": {
            format(i, f"0{len(chain)}b"): int(c) for i, c in enumerate(counts) if c
        },
        "bit_order": "qubit 0 rightmost; counts keyed by chain wire index",
        "metrics": {
            "ar": result.ar,
            "sp": result.sp,
            "feasible_fraction": result.feasible_fraction,
            "mean_cost": result.mean_cost,
            "opt_cost": result.opt_cost,
        },
        "duration_ns": lowered.total_duration_ns,
        "cx_count": lowered.cx_count,
        "shots": shots,
        "seed": seed,
        "noise_scale": noise_scale,
    }
    _emit(json.dumps(doc, indent=2) + "\n", output)


@main.command("optimize")
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option("--p", "p", type=int, default=1, show_default=True)
@click.option("--grid", type=int, default=8, show_default=True)
@click.option("--max-evals", type=int, default=20000, show_default=True)
@seed_option
@output_option
@handles_errors
def optimize_cmd(problem_path, p, grid, max_evals, seed, output):
    """Noiseless parameter optimization (exact expectations)."""
    if p < 1:
        raise ConfigError(f"--p must be >= 1, got {p}")
    problem = load_problem(problem_path)
    cfg = OptimizerConfig(max_evals=max_evals, initial_grid=grid, seed=seed)
    sweep = opt_mod.optimize_depth_sweep(
        problem.ising, problem.sense, list(range(1, p + 1)), cfg
    )
    result = sweep[p]
    doc = {
        "problem": problem.label,
        "p": p,
        "gammas": list(result.params.gammas),
        "betas": list(result.params.betas),
        "ar": result.ar,
        "evaluations": result.evaluations,
        "budget_exhausted": result.budget_exhausted,
        "optimizer": "grid+nelder-mead",
    }
    _emit(json.dumps(doc, indent=2) + "\n", output)


@main.command("benchmark")
@click.option("--device", "device_path", type=click.Path(exists=True), required=True)
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option(
    "--strategies", default="all",
    help="'all' or comma list of ecr,direct,global,bipotent.",
)
@click.option(
    "--opt-levels", default="all", help="'all' or comma list of default,zzopt,zzswapopt."
)
@click.option("--p", "p_range", default="1..3", show_default=True, help="e.g. 1..3 or 1,2,5")
@click.option("--shots", type=int, default=50000, show_default=True)
@click.option("--noise-scale", type=float, default=1.0, show_default=True)
@click.option("--grid", type=int, default=8, show_default=True)
@click.option("--max-evals", type=int, default=20000, show_default=True)
@format_option
@seed_option
@output_option
@handles_errors
def benchmark(device_path, problem_path, strategies, opt_levels, p_range, shots,
              noise_scale, grid, max_evals, fmt, seed, output):
    """Strategy-comparison sweep; one row per (strategy, opt level, p)."""
    dev = load_device(device_path)
    problem = load_problem(problem_path)
    if strategies == "all":
        strategy_list = list(Strategy)
    else:
        try:
            strategy_list = [STRATEGY_CHOICES[s] for s in strategies.split(",")]
        except KeyError as exc:
            raise ConfigError(f"unknown strategy {exc.args[0]!r}") from exc
    if opt_levels == "all":
        level_list = list(OptLevel)
    else:
        try:
            level_list = [OPT_CHOICES[o] for o in opt_levels.split(",")]
        except KeyError as exc:
            raise ConfigError(f"unknown opt level {exc.args[0]!r}") from exc
    cfg = OptimizerConfig(max_evals=max_evals, initial_grid=grid, seed=seed)
    rows = opt_mod.run_benchmark(
        dev, problem, strategy_list, level_list, _parse_range(p_range, "p"),
        cfg, shots, noise_scale,
    )
    if fmt == "csv":
        _emit(opt_mod.runs_to_csv(rows), output)
        return
    _emit(json.dumps([row.to_dict() for row in rows], indent=2) + "\n", output)


@main.command("qpt")
@click.option("--device", "device_path", type=click.Path(exists=True), required=True)
@click.option("--edge", "edge_text", required=True, help="e.g. 1,0")
@click.option(
    "--gate", type=click.Choice(["zz", "cz", "zz_swap"]), default="zz",
    show_default=True,
)
@click.option("--reps", default="1,5,10", show_default=True)
@click.option("--angles", type=int, default=9, show_default=True,
              help="Number of angle samples over (0, pi].")
@click.option("--noise-scale", type=float, default=1.0, show_default=True)
@opt_option
@format_option
@output_option
@handles_errors
def qpt(device_path, edge_text, gate, reps, angles, noise_scale, opt_name, fmt, output):
    """Process-infidelity table of repeated composites, per variant."""
    dev = load_device(device_path)
    pair = _parse_chain(edge_text)
    if len(pair) != 2:
        raise ConfigError(f"--edge {edge_text!r} must name two qubits")
    a, b = pair
    edge = dev.edge_between(a, b)
    if edge is None:
        raise ConfigError(f"device has no edge between {a} and {b}")
    target = GateKind(gate)
    repetitions = _parse_range(reps, "reps")
    angle_grid = [np.pi * (i + 1) / angles for i in range(angles)]
    rows = sim.qpt_infidelities(
        dev, edge, target, OPT_CHOICES[opt_name], repetitions, angle_grid,
        noise_scale,
    )
    if fmt == "json":
        _emit(json.dumps(rows, indent=2) + "\n", output)
        return
    lines = ["variant,angle,repetitions,duration_ns,infidelity"]
    for row in rows:
        lines.append(
            f"{row['variant']},{row['angle']!r},{row['repetitions']},"
            f"{row['duration_ns']!r},{row['infidelity']!r}"
        )
    _emit("\n".join(lines) + "\n", output)


if __name__ == "__main__":
    main()
