"""Command-line front end for the compilation and evaluation pipeline.

Exit codes: 0 success, 2 configuration error, 3 infeasible request,
4 internal invariant breach.  `--seed` (simulate, benchmark) falls back to
the BQAOA_SEED environment variable.  Bitstrings in every output read
qubit 0 rightmost.
"""

from __future__ import annotations

import dataclasses
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
from .errors import InfeasibleError, InputError, TooLargeError, ValidationError
from .lower import OptLevel, lower_circuit
from .mapper import Strategy, fidelity_score, select
from .optimize import OptimizerConfig
from .qaoa import ParamVector, load_problem

#: largest depth, repetition count or angle count a command accepts.  It is
#: checked before any list is built, so a huge count exits 2 at once rather
#: than trying to allocate one entry per unit; the bundled problems run at
#: depths of a few.
MAX_COUNT = 1000
COUNT = click.IntRange(1, MAX_COUNT)

OPT_CHOICES = {level.value: level for level in OptLevel}
STRATEGY_CHOICES = {s.value: s for s in Strategy}
#: ``device summarize --format csv``: one table per summary group, its columns
SUMMARY_CSV_COLUMNS = {
    "by_flavor": ("count", "mean_cx_error", "mean_cx_duration_ns"),
    "by_class": (
        "count", "mean_t1_us", "mean_t2_us", "mean_sx_error", "mean_readout_error"
    ),
}


def handles_errors(fn):
    """Map package exceptions to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except InfeasibleError as exc:
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
    """Integers in 1..MAX_COUNT from ``lo..hi`` or a comma list; ``name``
    labels errors."""
    try:
        if ".." in text:
            lo, hi = (int(v) for v in text.split(".."))
            values = range(lo, hi + 1)
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {name} range {text!r}") from exc
    # all() stops at the first value out of bounds, so a huge range is never listed
    if not values or not all(1 <= v <= MAX_COUNT for v in values):
        raise ValidationError(f"{name} range {text!r} must contain integers in 1..{MAX_COUNT}")
    return list(values)


def _parse_choices(text: str, choices: dict, name: str, what: str) -> list:
    """Every choice for ``all``, else those of a comma list of names; ``name``
    and ``what`` label errors."""
    if text == "all":
        return list(choices.values())
    try:
        return [choices[v] for v in text.split(",")]
    except KeyError as exc:
        raise ValidationError(f"{name}: unknown {what} {exc.args[0]!r}") from exc


def _parse_angles(
    text: str | None, p: int, fallback: float, name: str
) -> tuple[float, ...]:
    """``p`` comma-separated finite angles; ``name`` labels errors."""
    if text is None:
        return (fallback,) * p
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse {name} {text!r}") from exc
    if not all(np.isfinite(values)):
        raise ValidationError(f"{name} {text!r} must be finite")
    if len(values) != p:
        raise ValidationError(f"{name}: expected {p} comma-separated angles, got {len(values)}")
    return values


def _built(problem_path, p: int, gammas: str | None, betas: str | None):
    """The problem file and its swap network at the angles of ``--gammas``
    and ``--betas`` (0.5 and 0.3 per layer by default)."""
    problem = load_problem(problem_path)
    gamma_values = _parse_angles(gammas, p, 0.5, "--gammas")
    params = ParamVector(gamma_values, _parse_angles(betas, p, 0.3, "--betas"))
    return problem, qaoa.build_swap_network(problem.ising, params)


#: the problem-document field that sets the number of qubits, per problem type
SIZE_FIELDS = {"maxcut": "n", "portopt": "mu"}


def _dense(problem: qaoa.ProblemFile) -> qaoa.ProblemFile:
    """The problem, for a command that holds its dense state; past the dense
    limit the error names the document field that sets the size."""
    try:
        cir.require_dense(problem.ising.n)
    except TooLargeError as exc:
        raise TooLargeError(f"{SIZE_FIELDS[problem.kind]}: {exc}") from exc
    return problem


def _parse_chain(text: str, name: str = "--chain") -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.replace("-", ",").split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse {name} {text!r}") from exc


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
    if fmt == "json":
        classes = {str(q): qubit_class(dev, q).value for q in range(dev.num_qubits)}
        doc = {"name": dev.name, "num_qubits": dev.num_qubits, "qubit_classes": classes}
        _emit(json.dumps(doc | summary, indent=2) + "\n", output)
        return
    lines = []
    for table, columns in SUMMARY_CSV_COLUMNS.items():
        lines.append(",".join(("group",) + columns))
        for group, row in summary[table].items():
            lines.append(",".join([group] + [repr(row[c]) for c in columns]))
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
@click.option("--opt", "opt_name", type=click.Choice(sorted(OPT_CHOICES)),
              help="Lowering that ranks chains.  [default: zzswapopt for"
              " bipotent, else default]")
@output_option
@handles_errors
def chains_select(device_path, problem_path, strategy, opt_name, output):
    """Select a chain for a problem under one strategy."""
    dev = load_device(device_path)
    problem = load_problem(problem_path)
    strategy = STRATEGY_CHOICES[strategy]
    opt = OPT_CHOICES[opt_name] if opt_name else opt_mod.selection_opt_level(strategy)
    selection = select(
        dev, problem.ising.n, strategy, opt_mod.selection_template(problem.ising), opt
    )
    _emit(json.dumps(selection.to_dict(), indent=2) + "\n", output)


@main.group()
def circuit() -> None:
    """Circuit construction and lowering."""


@circuit.command("build")
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option("--p", "p", type=COUNT, default=1, show_default=True)
@click.option("--gammas", default=None, help="Comma-separated angles, one per layer.")
@click.option("--betas", default=None, help="Comma-separated angles, one per layer.")
@output_option
@handles_errors
def circuit_build(problem_path, p, gammas, betas, output):
    """Build the swap-network circuit and dump it as text."""
    _, circ = _built(problem_path, p, gammas, betas)
    _emit(cir.to_text(circ), output)


@circuit.command("lower")
@click.option("--device", "device_path", type=click.Path(exists=True), required=True)
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option("--chain", "chain_text", required=True, help="e.g. 9,8,11,14,16")
@click.option("--p", "p", type=COUNT, default=1, show_default=True)
@click.option("--gammas", default=None)
@click.option("--betas", default=None)
@opt_option
@output_option
@handles_errors
def circuit_lower(device_path, problem_path, chain_text, p, gammas, betas, opt_name, output):
    """Lower the built circuit onto a chain; emit the lowering report."""
    dev = load_device(device_path)
    _, circ = _built(problem_path, p, gammas, betas)
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
@click.option("--p", "p", type=COUNT, default=1, show_default=True)
@click.option("--gammas", default=None)
@click.option("--betas", default=None)
@opt_option
@output_option
@handles_errors
def estimate(device_path, problem_path, strategy, chain_text, p, gammas, betas, opt_name, output):
    """Duration, CX count and fidelity score of the lowered circuit."""
    dev = load_device(device_path)
    problem, circ = _built(problem_path, p, gammas, betas)
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
@click.option("--p", "p", type=COUNT, default=1, show_default=True)
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
    problem, circ = _built(problem_path, p, gammas, betas)
    _dense(problem)
    chain = _parse_chain(chain_text)
    lowered = lower_circuit(circ, chain, dev, OPT_CHOICES[opt_name])
    counts, logical = sim.run_noisy(lowered, dev, shots, seed, noise_scale, mitigate)
    result = qaoa.metrics(problem.ising, logical, problem.sense)
    doc = {
        "counts": {
            format(i, f"0{len(chain)}b"): int(c) for i, c in enumerate(counts) if c
        },
        "bit_order": "qubit 0 rightmost; counts keyed by chain wire index",
        "metrics": dataclasses.asdict(result),
        "duration_ns": lowered.total_duration_ns,
        "cx_count": lowered.cx_count,
        "shots": shots,
        "seed": seed,
        "noise_scale": noise_scale,
    }
    _emit(json.dumps(doc, indent=2) + "\n", output)


@main.command("optimize")
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option("--p", "p", type=COUNT, default=1, show_default=True)
@click.option("--grid", type=int, default=8, show_default=True)
@click.option("--max-evals", type=int, default=20000, show_default=True)
@output_option
@handles_errors
def optimize_cmd(problem_path, p, grid, max_evals, output):
    """Noiseless parameter optimization (exact expectations)."""
    problem = _dense(load_problem(problem_path))
    cfg = OptimizerConfig(max_evals=max_evals, initial_grid=grid)
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
    problem = _dense(load_problem(problem_path))
    strategy_list = _parse_choices(strategies, STRATEGY_CHOICES, "--strategies", "strategy")
    level_list = _parse_choices(opt_levels, OPT_CHOICES, "--opt-levels", "opt level")
    cfg = OptimizerConfig(max_evals=max_evals, initial_grid=grid, seed=seed)
    rows = opt_mod.run_benchmark(
        dev, problem, strategy_list, level_list, _parse_range(p_range, "--p"),
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
@click.option("--angles", type=COUNT, default=9, show_default=True,
              help="Number of angle samples over (0, pi].")
@click.option("--noise-scale", type=float, default=1.0, show_default=True)
@opt_option
@format_option
@output_option
@handles_errors
def qpt(device_path, edge_text, gate, reps, angles, noise_scale, opt_name, fmt, output):
    """Process-infidelity table of repeated composites, per variant."""
    dev = load_device(device_path)
    pair = _parse_chain(edge_text, "--edge")
    if len(pair) != 2:
        raise ValidationError(f"--edge {edge_text!r} must name two qubits")
    a, b = pair
    edge = dev.edge_between(a, b)
    if edge is None:
        raise ValidationError(f"device has no edge between {a} and {b}")
    target = GateKind(gate)
    repetitions = _parse_range(reps, "--reps")
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
