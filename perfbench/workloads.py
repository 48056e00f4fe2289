"""The benchmark workloads: seeded inputs, set-up, one pass, and its checks.

Each workload is one caller in a closed loop inside one process (jobs=1):
a pass starts when the previous one has returned.  A pass returns one row
per operation (a benchmark cell, a noisy evaluation or a QPT row) and the
text a user would read, which must be byte-identical from pass to pass.
``check`` returns one message per row, '' when the row passed, and the
number of rows whose every field was compared with the golden record.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
from bqaoa import data_path, device, optimize, qaoa, sim
from bqaoa.circuit import GateKind
from bqaoa.errors import NoChainError
from bqaoa.lower import OptLevel
from bqaoa.mapper import Strategy
from bqaoa.qaoa import ParamVector

import checks
import inputs


def _row_of(run: optimize.BenchmarkRun) -> dict:
    row = dataclasses.asdict(run)
    row["strategy"] = run.strategy.value
    row["opt_level"] = run.opt_level.value
    row["chain"] = list(run.chain)
    row["gammas"] = list(run.gammas)
    row["betas"] = list(run.betas)
    return row


def _valid_chain(dev, chain, k: int) -> bool:
    return (
        len(chain) == k
        and len(set(chain)) == k
        and all(dev.edge_between(a, b) is not None for a, b in zip(chain, chain[1:]))
    )


def _noisy_row_problem(dev, row: dict, k: int, shots: int) -> str:
    """Sanity of one noisy-evaluation row, independent of any reference."""
    if not _valid_chain(dev, row["chain"], k):
        return f"chain {row['chain']} is not a {k}-qubit device path"
    if row["ar"] is None or not np.isfinite(row["ar"]):
        return f"AR {row['ar']} is not finite"
    if not 0.0 <= row["sp"] <= 1.0:
        return f"SP {row['sp']} outside [0, 1]"
    if not (np.isfinite(row["duration_ns"]) and row["duration_ns"] > 0):
        return f"duration {row['duration_ns']} is not positive"
    if not 0.0 < row["fidelity_score"] <= 1.0:
        return f"fidelity score {row['fidelity_score']} outside (0, 1]"
    if row["cx_count"] < 0 or row["shots"] != shots:
        return "bad cx count or shot count"
    return ""


def _golden_problem(oracles, doc, sense, shots, row: dict, gold: dict) -> str:
    """Compare a noisy row with its golden record.

    Chain, duration, CX count and fidelity score are fixed before sampling
    and compared to 1e-12; sampled AR/SP get SHOT_SLACK shots of slack.
    """
    if row["chain"] != gold["chain"] or row.get("reason", "") != gold.get("reason", ""):
        return f"chain/reason {row['chain']} {row.get('reason')!r} differs from golden"
    if row.get("reason"):
        return ""
    for key in ("duration_ns", "fidelity_score"):
        if not checks.close(row[key], gold[key]):
            return f"{key} {row[key]!r} differs from golden {gold[key]!r}"
    if row["cx_count"] != gold["cx_count"]:
        return f"cx_count {row['cx_count']} differs from golden {gold['cx_count']}"
    sp_tol = checks.sp_tolerance(doc, shots)
    ar_tol = checks.ar_tolerance(oracles, doc, sense, shots)
    if abs(row["ar"] - gold["ar"]) > ar_tol:
        return f"AR {row['ar']!r} differs from golden {gold['ar']!r} by more than {ar_tol:.3g}"
    if abs(row["sp"] - gold["sp"]) > sp_tol:
        return f"SP {row['sp']!r} differs from golden {gold['sp']!r} by more than {sp_tol:.3g}"
    return ""


#: Problem size of ``sweep-n5`` and the depths it trains.
SWEEP_N = 5
SWEEP_DEPTHS = (1, 2)


class Sweep:
    """``sweep-n5``: the README strategy sweep, where noiseless training dominates.

    Chosen because training on the exact evaluator is most of a pass, so an
    array-native evaluator shows here, and because n=5 is the only size at
    which all four strategies are feasible on ehningen, so every strategy's
    selection and lowering runs.  The portfolio instance exercises budget
    post-selection in ``qaoa.metrics``.  A pass trains depths 1..2 with the
    default grid and a 300-evaluation budget per depth, which depth 2 always
    exhausts, so every seed asks for about the same work; the noisy cells
    use the ``default`` and ``zzswapopt`` levels.  The full README sweep
    (p 1..3, three levels, no budget cap) takes about 30 s per pass, too
    long for a run to repeat it.
    """

    name = "sweep-n5"

    def __init__(
        self,
        strategies=tuple(Strategy),
        opt_levels=(OptLevel.DEFAULT, OptLevel.ZZ_SWAP_OPT),
        shots: int = 50_000,
        cfg: optimize.OptimizerConfig = optimize.OptimizerConfig(max_evals=300),
    ):
        self.shots, self.cfg = shots, cfg
        self.strategies, self.opt_levels = tuple(strategies), tuple(opt_levels)

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "maxcut": inputs.maxcut_doc(rng, SWEEP_N),
            "portfolio": inputs.portfolio_doc(rng, SWEEP_N),
        }

    def setup(self, docs: dict) -> dict:
        dev = device.load_device(data_path("ehningen.json"))
        problems = {
            label: qaoa.problem_from_dict(doc, label=label) for label, doc in docs.items()
        }
        warm = ParamVector((0.5,), (0.25,))
        for problem in problems.values():
            optimize.exact_expectation_evaluator(problem.ising, problem.sense)(warm)
        return {"dev": dev, "docs": docs, "problems": problems}

    def run_pass(self, state: dict) -> tuple[list[dict], str]:
        runs = []
        for problem in state["problems"].values():
            runs.extend(
                optimize.run_benchmark(
                    state["dev"], problem, self.strategies, self.opt_levels,
                    SWEEP_DEPTHS, self.cfg, self.shots,
                )
            )
        return [_row_of(run) for run in runs], optimize.runs_to_csv(runs)

    def check(self, state, rows, capture, oracles, golden) -> tuple[list[str], int]:
        dev, docs, problems = state["dev"], state["docs"], state["problems"]
        depth_problem = self._check_training(rows, docs, problems, oracles)
        golden_rows = {} if golden is None else golden["rows"]
        out, compared = [], 0
        for row in rows:
            label, p = row["problem"], row["p"]
            gold = golden_rows.get(_cell_key(row))
            fixed = "" if gold is None else _angle_free_problem(row, gold)
            if fixed:
                out.append(fixed)
                continue
            if row["reason"]:
                # an infeasible strategy is an expected outcome, not a failure
                ok = not row["chain"] and row["ar"] is None
                out.append("" if ok else f"unexpected reason row: {row['reason']}")
                compared += gold is not None
                continue
            problem = (
                depth_problem[(label, p)]
                or _noisy_row_problem(dev, row, SWEEP_N, self.shots)
                or capture.problems(("noisy", row["seed"]))
            )
            # trained angles may legitimately move; golden AR/SP then do not apply
            angles = None if golden is None else golden["angles"].get(f"{label}|{p}")
            if gold is not None and _same_angles(row, angles):
                compared += 1
                problem = problem or _golden_problem(
                    oracles, docs[label], problems[label].sense, self.shots, row, gold
                )
            out.append(problem)
        return out, compared

    def _check_training(self, rows, docs, problems, oracles) -> dict:
        """Per (problem, p): the trained angles' noiseless AR, program vs oracle.

        The oracle AR must match the program's exact evaluator to 1e-9 and
        must not fall as p grows (each depth warm-starts from the last).
        """
        found: dict[tuple, str] = {}
        for label, problem in problems.items():
            doc = docs[label]
            encoding = np.abs(
                checks.doc_cost_table(oracles, doc) - qaoa.cost_vector(problem.ising)
            ).max()
            previous = -np.inf  # the search maximizes AR whatever the sense
            evaluator = optimize.exact_expectation_evaluator(problem.ising, problem.sense)
            for p in SWEEP_DEPTHS:
                angles = {
                    (tuple(r["gammas"]), tuple(r["betas"]))
                    for r in rows
                    if r["problem"] == label and r["p"] == p
                }
                problem_text = ""
                if encoding > 1e-9:
                    problem_text = f"encoding differs from the cost table by {encoding}"
                elif len(angles) != 1:
                    problem_text = f"{len(angles)} distinct trained angle sets at p={p}"
                else:
                    gammas, betas = angles.pop()
                    ar = checks.oracle_ar(oracles, problem, doc, gammas, betas)
                    program = evaluator(ParamVector(gammas, betas)).ar
                    if abs(ar - program) > 1e-9:
                        problem_text = f"noiseless AR {program!r} vs oracle {ar!r}"
                    elif ar < previous - 1e-9:
                        problem_text = f"trained AR fell from {previous!r} to {ar!r} at p={p}"
                    previous = ar
                found[(label, p)] = problem_text
        return found

    def golden(self, rows) -> dict:
        return {
            "angles": {f"{r['problem']}|{r['p']}": [r["gammas"], r["betas"]] for r in rows},
            "rows": {_cell_key(r): _golden_fields(r) for r in rows},
        }


def _cell_key(row: dict) -> str:
    return "|".join(
        str(row.get(k, "")) for k in ("problem", "strategy", "opt_level", "p")
    )


def _golden_fields(row: dict) -> dict:
    keys = ("chain", "ar", "sp", "duration_ns", "cx_count", "fidelity_score", "reason")
    return {k: row[k] for k in keys if k in row}


def _angle_free_problem(row: dict, gold: dict) -> str:
    """Compare a sweep cell's fields that do not depend on the trained angles.

    Chain, reason and CX count never do; duration and fidelity score do not
    at the ``default`` level, which lowers no pulse-scaled gates.
    """
    fixed = ("chain", "reason", "cx_count")
    if any(row[k] != gold[k] for k in fixed):
        return "chain/reason/cx_count " + str([row[k] for k in fixed]) + " differs from golden"
    if row["opt_level"] == OptLevel.DEFAULT.value and not (
        checks.close(row["duration_ns"], gold["duration_ns"])
        and checks.close(row["fidelity_score"], gold["fidelity_score"])
    ):
        return "duration/fidelity score at the default level differs from golden"
    return ""


def _same_angles(row: dict, angles) -> bool:
    """Whether training reached the golden angles (to 1e-12)."""
    return angles is not None and all(
        checks.close(a, b)
        for mine, gold in zip((row["gammas"], row["betas"]), angles)
        for a, b in zip(mine, gold, strict=True)
    )


#: ``noisy-n8`` evaluates the fixed angles at this depth and opt level, on
#: the chain of this strategy.
NOISY_P = 1
NOISY_STRATEGY = Strategy.GLOBAL
NOISY_OPT = OptLevel.ZZ_SWAP_OPT


class Noisy:
    """``noisy-n8``: noisy evaluation of fixed angles on an 8-qubit chain.

    Chosen because density-matrix evolution at n=8 is nearly all of a pass,
    so a fused superoperator engine shows here, while no training runs, so
    an evaluator change must leave it unchanged.  Every strategy selects a
    chain (global selection at k=8 scores every chain of the device); the
    ``ecr`` and ``bipotent`` strategies have no 8-qubit chain on ehningen
    and give reason rows, ``direct`` gives its selection, and the mixed-
    flavor ``global`` chain is evaluated at p=1 and ``zzswapopt``.  One
    evaluation takes about 4 s at the seed, so the full p=1..2 by three
    opt-level grid on both chains (about 75 s) does not fit in a run.
    """

    name = "noisy-n8"

    def __init__(self, n: int = 8, shots: int = 50_000):
        self.n, self.shots = n, shots

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "maxcut": inputs.maxcut_doc(rng, self.n),
            "angles": inputs.angles_doc(rng, NOISY_P),
            "sample_seed": int(rng.integers(2**31)),
            "warmup": inputs.maxcut_doc(rng, 3),
        }

    def setup(self, docs: dict) -> dict:
        dev = device.load_device(data_path("ehningen.json"))
        problem = qaoa.problem_from_dict(docs["maxcut"], label=f"maxcut{self.n}")
        warm = qaoa.problem_from_dict(docs["warmup"], label="warmup")
        chain = optimize.select_chain_for(dev, warm.ising, Strategy.DIRECT_ONLY).chain
        optimize.evaluate_noisy(
            dev, chain, warm.ising, warm.sense, ParamVector((0.5,), (0.25,)),
            OptLevel.DEFAULT, self.shots, 0, 1.0,
        )
        params = ParamVector(tuple(docs["angles"]["gammas"]), tuple(docs["angles"]["betas"]))
        return {"dev": dev, "docs": docs, "problem": problem, "params": params}

    def run_pass(self, state: dict) -> tuple[list[dict], str]:
        dev, problem, params = state["dev"], state["problem"], state["params"]
        rows = []
        for strategy in Strategy:
            try:
                selection = optimize.select_chain_for(dev, problem.ising, strategy)
            except NoChainError as exc:
                rows.append({"strategy": strategy.value, "chain": [], "reason": str(exc)})
                continue
            chain = selection.chain
            if strategy is not NOISY_STRATEGY:
                rows.append(
                    {
                        "strategy": strategy.value,
                        "chain": list(chain),
                        "duration_ns": selection.duration_ns,
                        "fidelity_score": selection.fidelity_score,
                    }
                )
                continue
            seed = optimize.cell_seed(
                state["docs"]["sample_seed"], problem.label, strategy.value,
                NOISY_OPT.value, NOISY_P,
            )
            result, lowered = optimize.evaluate_noisy(
                dev, chain, problem.ising, problem.sense, params, NOISY_OPT,
                self.shots, seed, 1.0,
            )
            rows.append(
                {
                    "strategy": strategy.value,
                    "opt_level": NOISY_OPT.value,
                    "chain": list(chain),
                    "seed": seed,
                    "shots": self.shots,
                    "ar": result.ar,
                    "sp": result.sp,
                    "duration_ns": lowered.total_duration_ns,
                    "cx_count": lowered.cx_count,
                    "fidelity_score": optimize.fidelity_score(dev, chain, lowered),
                }
            )
        return rows, json.dumps(rows)

    def check(self, state, rows, capture, oracles, golden) -> tuple[list[str], int]:
        dev, doc = state["dev"], state["docs"]["maxcut"]
        golden_rows = {} if golden is None else golden["rows"]
        out, compared = [], 0
        for row in rows:
            gold = golden_rows.get(_cell_key(row))
            compared += gold is not None
            if row.get("reason"):
                ok = gold is None or gold.get("reason") == row["reason"]
                out.append("" if ok else "reason differs from golden")
            elif "seed" not in row:
                out.append(self._selection_problem(dev, row, gold))
            else:
                out.append(self._evaluation_problem(dev, doc, row, capture, oracles, gold))
        return out, compared

    def _selection_problem(self, dev, row, gold) -> str:
        if not _valid_chain(dev, row["chain"], self.n):
            return f"chain {row['chain']} is not a {self.n}-qubit device path"
        if not 0.0 < row["fidelity_score"] <= 1.0 or not row["duration_ns"] > 0:
            return "selection scores out of range"
        if gold is not None and not (
            row["chain"] == gold["chain"]
            and checks.close(row["duration_ns"], gold["duration_ns"])
            and checks.close(row["fidelity_score"], gold["fidelity_score"])
        ):
            return "selection differs from golden"
        return ""

    def _evaluation_problem(self, dev, doc, row, capture, oracles, gold) -> str:
        key = ("noisy", row["seed"])
        problem = _noisy_row_problem(dev, row, self.n, self.shots) or capture.problems(key)
        if not problem and gold is not None:
            problem = _golden_problem(oracles, doc, "max", self.shots, row, gold)
        return problem

    def golden(self, rows) -> dict:
        return {"rows": {_cell_key(r): _golden_fields(r) for r in rows}}


#: The two reference edges of ehningen_fragment.json and the gate/opt pairs run on each.
QPT_EDGES = ((1, 0), (1, 4))
QPT_GATES = ((GateKind.ZZ, OptLevel.ZZ_OPT), (GateKind.ZZ_SWAP, OptLevel.ZZ_SWAP_OPT))
#: Seeded angles per QPT table.
QPT_ANGLES = 1


class Qpt:
    """``qpt-edge``: process-infidelity tables on both fragment reference edges.

    Chosen because it drives ``sim`` differently from ``noisy-n8``: two-qubit
    channels repeated up to 10 times, Choi matrices built by d^2 probing,
    and matrix square roots.  A channel-representation change must not
    trade one of the two workloads against the other.  A pass runs one
    seeded angle per table; the CLI default of 9 angles on all four tables
    takes about a minute at the seed.
    """

    name = "qpt-edge"

    def __init__(self, repetitions=(1, 5, 10), edges=QPT_EDGES, gates=QPT_GATES):
        self.repetitions, self.edges, self.gates = tuple(repetitions), tuple(edges), tuple(gates)

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"angles": inputs.qpt_angles(rng, QPT_ANGLES)}

    def setup(self, docs: dict) -> dict:
        dev = device.load_device(data_path("ehningen_fragment.json"))
        edge = dev.edge_between(*self.edges[0])
        sim.qpt_infidelities(dev, edge, GateKind.ZZ, OptLevel.DEFAULT, [1], [np.pi / 2])
        return {"dev": dev, "docs": docs}

    def run_pass(self, state: dict) -> tuple[list[dict], str]:
        dev, angles = state["dev"], state["docs"]["angles"]
        rows = []
        for a, b in self.edges:
            edge = dev.edge_between(a, b)
            for gate, opt in self.gates:
                table = sim.qpt_infidelities(dev, edge, gate, opt, self.repetitions, angles)
                for row in table:
                    rows.append(
                        {"edge": [edge.control, edge.target], "gate": gate.value,
                         "opt_level": opt.value} | row
                    )
        return rows, json.dumps(rows)

    def check(self, state, rows, capture, oracles, golden) -> tuple[list[str], int]:
        golden_rows = [] if golden is None else golden["rows"]
        if golden is not None and len(golden_rows) != len(rows):
            return ["row count differs from golden"] * len(rows), 0
        previous: dict[tuple, float] = {}
        out = []
        for index, row in enumerate(rows):
            key = checks.qpt_key(*row["edge"], row["gate"], row["opt_level"])
            series = key + (row["variant"], row["angle"])
            infidelity = row["infidelity"]
            problem = capture.problems(key)
            if not problem and not 0.0 <= infidelity <= 1.0:
                problem = f"infidelity {infidelity!r} outside [0, 1]"
            if not problem and infidelity < previous.get(series, 0.0):
                problem = f"infidelity fell to {infidelity!r} at {row['repetitions']} reps"
            previous[series] = infidelity
            if not problem and golden is not None:
                gold = golden_rows[index]
                same = all(row[k] == gold[k] for k in ("edge", "gate", "variant", "repetitions"))
                if not same or not checks.close(row["angle"], gold["angle"]):
                    problem = "row identity differs from golden"
                elif not checks.close(row["duration_ns"], gold["duration_ns"]):
                    problem = f"duration {row['duration_ns']!r} differs from golden"
                elif abs(infidelity - gold["infidelity"]) > checks.EXACT_TOL:
                    problem = f"infidelity {infidelity!r} differs from golden {gold['infidelity']!r}"
            out.append(problem)
        return out, len(golden_rows)

    def golden(self, rows) -> dict:
        return {"rows": rows}


WORKLOADS = {w.name: w for w in (Sweep(), Noisy(), Qpt())}
