import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import helpers
import oracles
from bqaoa import data_path, optimize, qaoa
from bqaoa.errors import NoFeasibleOutcomeError, ValidationError
from bqaoa.lower import OptLevel
from bqaoa.mapper import Strategy
from bqaoa.optimize import OptimizerConfig
from bqaoa.qaoa import ParamVector


def k5():
    return qaoa.encode_maxcut(helpers.complete_maxcut(5))


def test_k5_p1_reaches_published_floor():
    prob = k5()
    evaluator = optimize.exact_expectation_evaluator(prob, "max")
    result = optimize.optimize_params(
        prob, 1, evaluator, OptimizerConfig(initial_grid=10)
    )
    assert result.ar >= 0.91


def test_k5_p1_matches_dense_grid_oracle():
    prob = k5()
    evaluator = optimize.exact_expectation_evaluator(prob, "max")
    result = optimize.optimize_params(
        prob, 1, evaluator, OptimizerConfig(initial_grid=10)
    )
    # dense scan of the same exact landscape, by the closed-form expectation
    gamma, beta = np.meshgrid(
        np.linspace(0, np.pi, 100), np.linspace(0, np.pi / 2, 100), indexing="ij"
    )
    edges = list(itertools.combinations(range(5), 2))
    best = (oracles.maxcut_p1_expectation(5, edges, gamma, beta) / 6.0).max()
    assert result.ar >= best - 1e-3


def test_all_zero_problem_returns_grid_origin():
    prob = qaoa.IsingProblem(n=2, j=(), h=(0.0, 0.0), constant=0.0)
    evaluator = optimize.exact_expectation_evaluator(prob, "min")
    result = optimize.optimize_params(
        prob, 1, evaluator, OptimizerConfig(initial_grid=4, max_evals=50)
    )
    # AR is undefined everywhere (zero optimum); ties resolve to the first
    # evaluated point, the grid origin
    assert result.params.gammas == (0.0,)
    assert result.params.betas == (0.0,)


def test_refinements_start_from_the_best_distinct_points_in_trace_order(monkeypatch):
    # every point ties; the warm start repeats the grid origin, so the second
    # refinement starts from the second distinct point, not from the repeat
    starts = []
    monkeypatch.setattr(
        optimize, "_nelder_mead", lambda func, x0, *args, **kw: starts.append(tuple(x0))
    )
    optimize.optimize_params(
        k5(), 1, lambda params: SimpleNamespace(ar=0.5), OptimizerConfig(initial_grid=2),
        warm_starts=[ParamVector((0.0,), (0.0,))],
    )
    assert starts == [(0.0, 0.0), (0.0, np.pi / 4)]


def test_trace_best_so_far_is_monotone():
    prob = k5()
    evaluator = optimize.exact_expectation_evaluator(prob, "max")
    result = optimize.optimize_params(
        prob, 1, evaluator, OptimizerConfig(initial_grid=6)
    )
    best = -np.inf
    for _, value in result.trace:
        best = max(best, value)
    assert best == result.ar


def test_budget_exhaustion_flag():
    prob = k5()
    evaluator = optimize.exact_expectation_evaluator(prob, "max")
    result = optimize.optimize_params(
        prob, 1, evaluator, OptimizerConfig(initial_grid=10, max_evals=20)
    )
    assert result.budget_exhausted
    assert result.evaluations <= 20


@pytest.mark.parametrize(
    "max_evals,evaluations,exhausted",
    [
        (1, 1, True),
        (64, 64, True),  # the 8x8 grid fills the budget exactly
        (65, 64, True),  # one evaluation left: the refinement is skipped
        (66, 66, True),  # the budget runs out inside the initial simplex
        (120, 120, True),
        (140, 140, True),
        (OptimizerConfig().max_evals, 162, False),
    ],
)
def test_budget_flag_when_refinement_spends_the_budget(max_evals, evaluations, exhausted):
    # unbounded, k5 at p=1 takes 162 evaluations; a budget of 120 or 140 runs
    # out inside the last Nelder-Mead refinement
    prob = k5()
    evaluator = optimize.exact_expectation_evaluator(prob, "max")
    cfg = OptimizerConfig(max_evals=max_evals)
    result = optimize.optimize_params(prob, 1, evaluator, cfg)
    assert result.evaluations == len(result.trace) == evaluations
    assert result.budget_exhausted is exhausted


def test_warm_start_never_loses_ground():
    prob = k5()
    sweep = optimize.optimize_depth_sweep(
        prob, "max", [1, 2, 3], OptimizerConfig(initial_grid=8)
    )
    assert sweep[2].ar >= sweep[1].ar - 0.01
    assert sweep[3].ar >= sweep[2].ar - 0.01


def test_cell_seed_stability():
    a = optimize.cell_seed(7, "k5", "ecr", "default", 1)
    b = optimize.cell_seed(7, "k5", "ecr", "default", 1)
    c = optimize.cell_seed(8, "k5", "ecr", "default", 1)
    assert a == b != c


@pytest.fixture(scope="module")
def k5_benchmark(synthetic5_module):
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    cfg = OptimizerConfig(max_evals=4000, initial_grid=6, seed=3)
    return optimize.run_benchmark(
        synthetic5_module,
        problem,
        list(Strategy),
        list(OptLevel),
        [1, 2],
        cfg,
        shots=20000,
        noise_scale=1.0,
    )


@pytest.fixture(scope="module")
def synthetic5_module():
    from bqaoa import data_path, device

    return device.load_device(data_path("synthetic5.json"))


def test_run_benchmark_shape_and_feasibility(k5_benchmark):
    rows = k5_benchmark
    assert len(rows) == 4 * 3 * 2
    feasible = [r for r in rows if not r.reason]
    infeasible = [r for r in rows if r.reason]
    # the 5-qubit device cannot satisfy the below-mean bipotent constraint
    # at k = 5 (some qubit always sits at or above the mean)
    assert {r.strategy for r in infeasible} == {Strategy.BIPOTENT}
    assert all(r.ar is not None for r in feasible)
    assert all(r.chain for r in feasible)


def test_run_benchmark_zzswapopt_ecr_rows_are_cx_free(k5_benchmark):
    rows = [
        r
        for r in k5_benchmark
        if r.strategy is Strategy.ECR_ONLY and r.opt_level is OptLevel.ZZ_SWAP_OPT
    ]
    assert rows and all(r.cx_count == 0 for r in rows)


def test_run_benchmark_deterministic_rerun(k5_benchmark, synthetic5_module):
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    cfg = OptimizerConfig(max_evals=4000, initial_grid=6, seed=3)
    again = optimize.run_benchmark(
        synthetic5_module, problem, list(Strategy), list(OptLevel), [1, 2],
        cfg, shots=20000, noise_scale=1.0,
    )
    assert optimize.runs_to_csv(again) == optimize.runs_to_csv(k5_benchmark)


def test_noise_scale_zero_matches_noiseless_optimum(synthetic5_module):
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    cfg = OptimizerConfig(max_evals=2000, initial_grid=8, seed=1)
    rows = optimize.run_benchmark(
        synthetic5_module, problem, [Strategy.GLOBAL], [OptLevel.DEFAULT],
        [1], cfg, shots=50000, noise_scale=0.0,
    )
    sweep = optimize.optimize_depth_sweep(problem.ising, "max", [1], cfg)
    noiseless = sweep[1].ar
    # sampling the exact distribution at 50000 shots: allow 3 sigma of the
    # cut estimator (std of cut <= 2.5 on K5)
    tolerance = 3 * 2.5 / np.sqrt(50000) / 6.0
    assert rows[0].ar == pytest.approx(noiseless, abs=tolerance)


def test_noise_scale_ordering(synthetic5_module):
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    params = ParamVector((0.419,), (0.262,))
    results = []
    for scale in (0.0, 1.0, 2.0):
        metrics, _ = optimize.evaluate_noisy(
            synthetic5_module, (0, 1, 2, 3, 4), problem.ising, "max", params,
            OptLevel.DEFAULT, shots=50000, seed=77, noise_scale=scale,
        )
        results.append(metrics)
    slack = 3 * 2.5 / np.sqrt(50000) / 6.0
    assert results[1].ar <= results[0].ar + slack
    assert results[2].ar <= results[1].ar + slack
    assert results[1].sp <= results[0].sp + 0.01
    assert results[2].sp <= results[1].sp + 0.01


def test_run_benchmark_rejects_empty_ranges(synthetic5_module):
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    with pytest.raises(ValidationError, match="must be non-empty"):
        optimize.run_benchmark(
            synthetic5_module, problem, [], [OptLevel.DEFAULT], [1],
            OptimizerConfig(), shots=100,
        )


def test_csv_columns_and_na_cells(k5_benchmark):
    text = optimize.runs_to_csv(k5_benchmark)
    lines = text.splitlines()
    assert lines[0] == ",".join(optimize.CSV_COLUMNS)
    bipotent_lines = [l for l in lines if ",bipotent," in l]
    assert bipotent_lines and all(",NA," in l for l in bipotent_lines)


@pytest.mark.parametrize(
    "shots, noise_scale, field",
    [(0, 1.0, "shots"), (2**63, 1.0, "shots"), (100, -1.0, "noise scale"),
     (100, float("nan"), "noise scale")],
)
def test_run_benchmark_checks_shots_and_noise_scale_before_training(
    monkeypatch, synthetic5_module, shots, noise_scale, field
):
    def no_training(*args):
        raise AssertionError("trained before the sweep's options were checked")

    monkeypatch.setattr(optimize, "optimize_depth_sweep", no_training)
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    with pytest.raises(ValidationError, match=field):
        optimize.run_benchmark(
            synthetic5_module, problem, [Strategy.GLOBAL], [OptLevel.DEFAULT], [1],
            OptimizerConfig(), shots=shots, noise_scale=noise_scale,
        )


def test_empty_post_selection_row_keeps_its_chain_and_gives_the_reason(
    monkeypatch, synthetic5_module
):
    problem = qaoa.load_problem(data_path("k5_maxcut.json"))
    args = (
        synthetic5_module, problem, [Strategy.GLOBAL, Strategy.BIPOTENT],
        [OptLevel.DEFAULT, OptLevel.ZZ_OPT], [1, 2],
        OptimizerConfig(max_evals=200, initial_grid=4, seed=5), 2000,
    )
    before = optimize.run_benchmark(*args)
    evaluate_noisy = optimize.evaluate_noisy
    message = "no outcome has Hamming weight 2"

    def empty_for_one_cell(dev, chain, prob, sense, params, opt, *rest):
        if opt is OptLevel.ZZ_OPT and params.p == 2:
            raise NoFeasibleOutcomeError(message)
        return evaluate_noisy(dev, chain, prob, sense, params, opt, *rest)

    monkeypatch.setattr(optimize, "evaluate_noisy", empty_for_one_cell)
    after = optimize.run_benchmark(*args)

    def is_empty(row):
        return (row.strategy is Strategy.GLOBAL and row.opt_level is OptLevel.ZZ_OPT
                and row.p == 2)

    [old], [new] = [r for r in before if is_empty(r)], [r for r in after if is_empty(r)]
    assert new.chain == old.chain and len(new.chain) == 5
    assert new.reason == message and not old.reason
    results = ("ar", "sp", "duration_ns", "cx_count", "fidelity_score")
    assert all(getattr(new, name) is None for name in results)
    assert new == replace(old, reason=message, **dict.fromkeys(results))
    header, *lines = optimize.runs_to_csv([new]).splitlines()
    cells = dict(zip(header.split(","), lines[0].split(",")))
    assert [cells[name] for name in results] == ["NA"] * len(results)
    assert cells["reason"] == message
    assert [r for r in after if not is_empty(r)] == [r for r in before if not is_empty(r)]
