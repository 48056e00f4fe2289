import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from bqaoa import data_path, device, errors, qaoa, sim
from bqaoa.cli import main
from bqaoa.lower import lower_circuit

FRAGMENT = str(data_path("ehningen_fragment.json"))
EHNINGEN = str(data_path("ehningen.json"))
SYNTH5 = str(data_path("synthetic5.json"))
K5 = str(data_path("k5_maxcut.json"))
PORTOPT3 = str(data_path("portopt3.json"))
PORTOPT5 = str(data_path("portopt5.json"))


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def two_asset_problem(tmp_path):
    doc = {
        "type": "portopt",
        "mu": [0.1, 0.2],
        "sigma": [[0.01, 0.002], [0.002, 0.012]],
        "q": 0.5,
        "B": 1,
        "A": 0.2,
        "lambda": 2.0,
    }
    path = tmp_path / "two_asset.json"
    path.write_text(json.dumps(doc))
    return str(path)


TABLE1_SUMMARY_JSON = """\
{
  "name": "ehningen_flavor_means",
  "num_qubits": 4,
  "qubit_classes": {
    "0": "ecr",
    "1": "ecr",
    "2": "direct",
    "3": "direct"
  },
  "by_flavor": {
    "ecr": {
      "count": 1,
      "mean_cx_error": 0.0083,
      "mean_cx_duration_ns": 382.22
    },
    "direct": {
      "count": 1,
      "mean_cx_error": 0.0079,
      "mean_cx_duration_ns": 256.89
    }
  },
  "by_class": {
    "ecr": {
      "count": 2,
      "mean_t1_us": 150.0,
      "mean_t2_us": 150.0,
      "mean_sx_error": 0.0002,
      "mean_readout_error": 0.01
    },
    "direct": {
      "count": 2,
      "mean_t1_us": 150.0,
      "mean_t2_us": 150.0,
      "mean_sx_error": 0.0002,
      "mean_readout_error": 0.01
    }
  },
  "cx_error_reduction_pct": 4.8192771084337265,
  "cx_duration_reduction_pct": 32.79001622102455
}
"""

TABLE1_SUMMARY_CSV = """\
group,count,mean_cx_error,mean_cx_duration_ns
ecr,1,0.0083,382.22
direct,1,0.0079,256.89
group,count,mean_t1_us,mean_t2_us,mean_sx_error,mean_readout_error
ecr,2,150.0,150.0,0.0002,0.01
direct,2,150.0,150.0,0.0002,0.01
"""


def test_device_summarize_json(runner):
    result = runner.invoke(
        main, ["device", "summarize", str(data_path("ehningen_table1.json"))]
    )
    assert result.exit_code == 0
    assert result.output == TABLE1_SUMMARY_JSON


def test_chains_select_json(runner):
    result = runner.invoke(
        main,
        ["chains", "select", "--device", EHNINGEN, "--problem", K5,
         "--strategy", "ecr"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["strategy"] == "ecr"
    assert set(doc["flavors"]) == {"ecr"}
    assert len(doc["chain"]) == 5


def test_circuit_build_text_dump(runner):
    result = runner.invoke(
        main, ["circuit", "build", "--problem", K5, "--p", "1",
               "--gammas", "0.4", "--betas", "0.3"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[1] == "H 0"
    assert any(line.startswith("ZZ_SWAP") for line in lines)
    assert sum(1 for line in lines if line.startswith("MEASURE")) == 5


def test_estimate_reference_durations(runner, two_asset_problem):
    result = runner.invoke(
        main,
        ["estimate", "--device", FRAGMENT, "--problem", two_asset_problem,
         "--chain", "1,4", "--p", "1"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    zz_rows = [g for g in doc["gates"] if g["kind"] == "zz"]
    assert zz_rows and all(g["duration_ns"] == 490.0 for g in zz_rows)
    assert all(g["flavor"] == "direct" for g in zz_rows)


def test_estimate_infeasible_exits_3(runner):
    # the fragment has no 5-qubit chain at all
    result = runner.invoke(
        main,
        ["estimate", "--device", FRAGMENT, "--problem", K5,
         "--strategy", "global"],
    )
    assert result.exit_code == 3


def test_config_error_exits_2(runner, tmp_path):
    result = runner.invoke(
        main,
        ["benchmark", "--device", SYNTH5, "--problem", K5, "--p", "0..0"],
    )
    assert result.exit_code == 2
    result = runner.invoke(
        main, ["optimize", "--problem", K5, "--p", "1", "--max-evals", "0"]
    )
    assert result.exit_code == 2
    assert "max-evals" in result.output
    for p in ("0", "-1"):
        result = runner.invoke(main, ["optimize", "--problem", PORTOPT3, "--p", p])
        assert result.exit_code == 2, result.output
        assert "--p" in result.output
    for field, value in (("cx_duration_ns", float("inf")), ("cx_error", "abc")):
        doc = json.loads(open(FRAGMENT).read())
        doc["edges"][0][field] = value
        path = tmp_path / f"bad_{field}.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["device", "summarize", str(path)])
        assert result.exit_code == 2
        assert f"edges[0].{field}" in result.output
    for field, value in (("control", "x"), ("target", 1.5)):
        doc = json.loads(open(FRAGMENT).read())
        doc["edges"][0][field] = value
        path = tmp_path / f"bad_{field}.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["device", "summarize", str(path)])
        assert result.exit_code == 2
        assert f"edges[0].{field}" in result.output
    fragment = json.loads(open(FRAGMENT).read())
    bad_devices = [
        (fragment | {"qubits": 5}, "qubits"),
        (fragment | {"qubits": [[]] + fragment["qubits"][1:]}, "qubits[0]"),
        (fragment | {"edges": {"0": fragment["edges"][0]}}, "edges"),
        (fragment | {"edges": [[1, 0]] + fragment["edges"][1:]}, "edges[0]"),
        (fragment | {"single_qubit_durations_ns": [0, 32]}, "single_qubit_durations_ns"),
        (
            fragment
            | {"edges": [fragment["edges"][0] | {"composite_durations_ns": [490]}]},
            "edges[0].composite_durations_ns",
        ),
        (fragment | {"cr_scale_model": [64, 177.8]}, "cr_scale_model"),
        # a negative model would schedule pulse units of negative duration
        (fragment | {"cr_scale_model": {"intercept_ns": -500}}, "cr_scale_model.intercept_ns"),
        (fragment | {"cr_scale_model": {"slope_ns_per_pi": -1}}, "cr_scale_model.slope_ns_per_pi"),
        # a boolean is not a number, and a name is a string
        (fragment | {"qubits": [fragment["qubits"][0] | {"t1_us": True}]
                     + fragment["qubits"][1:]}, "qubits[0].t1_us"),
        (fragment | {"edges": [fragment["edges"][0] | {"control": True}]}, "edges[0].control"),
        (fragment | {"name": {"a": 1}}, "name"),
        (fragment | {"name": None}, "name"),
        (fragment | {"name": 1.5}, "name"),
        # a duration key no rule reads would silently do nothing
        (
            fragment
            | {"edges": [fragment["edges"][0] | {"composite_durations_ns": {"zzswap": 900}}]},
            "edges[0].composite_durations_ns[zzswap]",
        ),
        (fragment | {"single_qubit_durations_ns": {"foo": 1}}, "single_qubit_durations_ns[foo]"),
        # a misspelled optional key would load with no effect
        (
            fragment
            | {"edges": [fragment["edges"][0] | {"composite_duration_ns": {"zz": 500}}]},
            "edges[0].composite_duration_ns",
        ),
        (fragment | {"cr_scale": {"intercept_ns": 1.0}}, "cr_scale"),
        (fragment | {"cr_scale_model": {"intercept": 1.0}}, "cr_scale_model.intercept"),
        (fragment | {"qubits": [fragment["qubits"][0] | {"t1": 90.0}]
                     + fragment["qubits"][1:]}, "qubits[0].t1"),
    ]
    for k, (doc, name) in enumerate(bad_devices):
        path = tmp_path / f"bad_device_{k}.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["device", "summarize", str(path)])
        assert result.exit_code == 2, (name, result.output)
        assert f"{name}:" in result.output
    # a number too long to convert, or bytes that are not UTF-8, are a bad
    # file, not an internal error
    long_number = tmp_path / "long_number.json"
    long_number.write_text('{"type": "maxcut", "num_qubits": ' + "1" * 5000 + "}")
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'\xff\xfe{"type": "maxcut"}')
    for path in (long_number, not_utf8):
        for command in (["device", "summarize"], ["optimize", "--problem"]):
            result = runner.invoke(main, command + [str(path)])
            assert result.exit_code == 2, (path.name, result.output)
            assert str(path) in result.output
    for option in ("--gammas", "--betas"):
        result = runner.invoke(
            main, ["circuit", "build", "--problem", K5, "--p", "1", option, "abc"]
        )
        assert result.exit_code == 2
        assert option in result.output
    result = runner.invoke(main, ["qpt", "--device", FRAGMENT, "--edge", "1,0,4"])
    assert result.exit_code == 2
    assert "--edge" in result.output
    for angles in ("0", "-2"):
        result = runner.invoke(
            main, ["qpt", "--device", FRAGMENT, "--edge", "1,0", "--angles", angles]
        )
        assert result.exit_code == 2, result.output
        assert "--angles" in result.output
    for grid in ("0", "-3"):
        for command in (
            ["optimize", "--problem", K5, "--p", "2"],
            ["benchmark", "--device", SYNTH5, "--problem", K5, "--p", "1..2"],
        ):
            result = runner.invoke(main, command + ["--grid", grid])
            assert result.exit_code == 2, result.output
            assert "--grid" in result.output
    portopt = json.loads(open(PORTOPT5).read())
    maxcut = json.loads(open(K5).read())
    bad_problems = [
        (portopt, "mu", ["abc"] + portopt["mu"][1:], "mu[0]"),
        (portopt, "sigma", [[0.1, "x"]] + portopt["sigma"][1:], "sigma[0][1]"),
        (portopt, "q", "abc", "q"),
        (portopt, "A", None, "A"),
        (portopt, "lambda", float("inf"), "lambda"),
        (portopt, "B", 1.5, "B"),
        (maxcut, "n", "five", "n"),
        (maxcut, "edges", [[0, 1], [0, 2, 3]], "edges[1]"),
        (maxcut, "edges", [[0, "x"]], "edges[0][1]"),
        (portopt, "B", True, "B"),
        (portopt, "q", False, "q"),
        (maxcut, "n", 1e300, "n"),
        (maxcut, "n", 1e12, "n"),
        (maxcut, "n", -1, "n"),
        (maxcut, "weights", [1.0], "weights"),
        (portopt, "budget", 2, "budget"),
    ]
    for k, (doc, field, value, name) in enumerate(bad_problems):
        path = tmp_path / f"bad_problem_{k}.json"
        path.write_text(json.dumps(doc | {field: value}))
        result = runner.invoke(main, ["optimize", "--problem", str(path)])
        assert result.exit_code == 2, (name, result.output)
        assert f"{name}:" in result.output


def test_cli_import_leaves_scipy_optimize_unloaded():
    """scipy.optimize is most of the import time; only training needs it."""
    probe = "import sys, bqaoa.cli; print('scipy.optimize' in sys.modules)"
    env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


def test_training_loads_no_scipy():
    probe = (
        "import sys; from bqaoa import data_path, optimize, qaoa; "
        "problem = qaoa.load_problem(data_path('k5_maxcut.json')); "
        "optimize.optimize_depth_sweep(problem.ising, problem.sense, [1, 2], "
        "optimize.OptimizerConfig()); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_singular_readout_exits_3_unless_unmitigated(runner, tmp_path):
    # qubit 0 reads out as a coin flip: its confusion matrix has no inverse
    doc = json.loads(open(SYNTH5).read())
    doc["qubits"][0] |= {
        "prob_meas0_prep1": 0.5, "prob_meas1_prep0": 0.5, "readout_error": 0.5,
    }
    path = tmp_path / "coin_flip_readout.json"
    path.write_text(json.dumps(doc))
    args = ["simulate", "--device", str(path), "--problem", K5,
            "--chain", "4,3,2,1,0", "--shots", "500", "--seed", "5"]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert "wire 4" in result.output and "singular" in result.output
    result = runner.invoke(main, args + ["--no-mitigate"])
    assert result.exit_code == 0, result.output


def test_every_package_error_has_one_exit_code():
    # an error class in neither tuple would fall through to exit 4
    package_errors = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.BqaoaError)
        and cls is not errors.BqaoaError
    ]
    assert package_errors
    for cls in package_errors:
        homes = (cls in errors.CONFIG_ERRORS) + (cls in errors.INFEASIBLE_ERRORS)
        assert homes == 1, cls.__name__


def test_simulate_metrics(runner):
    result = runner.invoke(
        main,
        ["simulate", "--device", SYNTH5, "--problem", K5,
         "--chain", "0,1,2,3,4", "--p", "1", "--gammas", "0.419",
         "--betas", "0.262", "--shots", "4000", "--seed", "5"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert sum(doc["counts"].values()) == 4000
    assert 0.5 < doc["metrics"]["ar"] <= 1.0


def test_simulate_no_mitigate_uses_raw_counts(runner):
    args = ["simulate", "--device", SYNTH5, "--problem", K5,
            "--chain", "0,1,2,3,4", "--p", "1", "--gammas", "0.419",
            "--betas", "0.262", "--shots", "3000", "--seed", "5"]
    mitigated = runner.invoke(main, args)
    raw = runner.invoke(main, args + ["--no-mitigate"])
    assert mitigated.exit_code == 0 and raw.exit_code == 0
    doc, raw_doc = json.loads(mitigated.output), json.loads(raw.output)
    assert raw_doc["counts"] == doc["counts"]
    problem = qaoa.load_problem(K5)
    circ = qaoa.build_swap_network(problem.ising, qaoa.ParamVector((0.419,), (0.262,)))
    lowered = lower_circuit(circ, (0, 1, 2, 3, 4), device.load_device(SYNTH5))
    counts = np.zeros(2**5)
    for key, value in raw_doc["counts"].items():
        counts[int(key, 2)] = value
    logical = sim.remap_counts(counts, lowered.measure_map())
    expected = qaoa.metrics(problem.ising, logical, problem.sense)
    assert raw_doc["metrics"] == {
        key: getattr(expected, key) for key in raw_doc["metrics"]
    }
    assert raw_doc["metrics"] != doc["metrics"]


def test_simulate_seed_determinism(runner):
    args = ["simulate", "--device", SYNTH5, "--problem", K5,
            "--chain", "0,1,2,3,4", "--shots", "2000", "--seed", "9"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.output == b.output


@pytest.mark.parametrize("scale", ["nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "qpt", "benchmark"])
def test_non_finite_noise_scale_exits_2(runner, command, scale):
    args = {
        "simulate": ["simulate", "--device", SYNTH5, "--problem", K5,
                     "--chain", "0,1,2,3,4", "--shots", "100"],
        "qpt": ["qpt", "--device", FRAGMENT, "--edge", "1,0", "--angles", "1"],
        "benchmark": ["benchmark", "--device", SYNTH5, "--problem", K5,
                      "--strategies", "global", "--opt-levels", "default",
                      "--p", "1", "--grid", "2", "--max-evals", "4",
                      "--shots", "100"],
    }[command]
    result = runner.invoke(main, args + ["--noise-scale", scale])
    assert result.exit_code == 2
    assert "noise scale" in result.output


def test_optimize_command(runner):
    result = runner.invoke(
        main, ["optimize", "--problem", K5, "--p", "1", "--grid", "8"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["ar"] >= 0.91
    assert len(doc["gammas"]) == 1
    assert doc["optimizer"] == "grid+nelder-mead"


def test_optimize_undefined_ar_prints_null(runner, tmp_path):
    # no edges: the optimum cut is 0, so AR is undefined at every point
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"type": "maxcut", "n": 5, "edges": []}))
    result = runner.invoke(main, ["optimize", "--problem", str(path), "--p", "1"])
    assert result.exit_code == 0, result.output

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(result.output, parse_constant=reject)
    assert doc["ar"] is None


def test_benchmark_csv_deterministic(runner, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["benchmark", "--device", SYNTH5, "--problem", K5,
            "--strategies", "global,ecr", "--opt-levels", "default,zzswapopt",
            "--p", "1..2", "--shots", "8000", "--grid", "5", "--seed", "11",
            "--format", "csv"]
    assert runner.invoke(main, args + ["-o", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["-o", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2


def test_benchmark_env_seed(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("BQAOA_SEED", "31")
    out = tmp_path / "env.csv"
    args = ["benchmark", "--device", SYNTH5, "--problem", K5,
            "--strategies", "global", "--opt-levels", "default",
            "--p", "1", "--shots", "2000", "--grid", "4",
            "--format", "csv", "-o", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    assert ",31," not in out.read_text()  # seed column holds the derived cell seed
    monkeypatch.setenv("BQAOA_SEED", "32")
    out2 = tmp_path / "env2.csv"
    assert runner.invoke(
        main, args[:-1] + [str(out2)]
    ).exit_code == 0
    assert out.read_text() != out2.read_text()


def test_qpt_noiseless(runner):
    result = runner.invoke(
        main,
        ["qpt", "--device", FRAGMENT, "--edge", "1,0", "--gate", "zz",
         "--opt", "zzopt", "--reps", "1,5", "--angles", "3",
         "--noise-scale", "0", "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()[1:]
    assert lines
    for line in lines:
        assert float(line.rsplit(",", 1)[1]) < 1e-9


def test_qpt_orderings(runner):
    result = runner.invoke(
        main,
        ["qpt", "--device", FRAGMENT, "--edge", "1,0", "--gate", "zz",
         "--opt", "zzopt", "--reps", "1,10", "--angles", "4"],
    )
    assert result.exit_code == 0
    rows = json.loads(result.output)
    by_key = {(r["variant"], r["angle"], r["repetitions"]): r["infidelity"] for r in rows}
    for (variant, angle, reps), value in by_key.items():
        if reps == 10:
            assert value >= by_key[(variant, angle, 1)] - 1e-12
        if variant == "opt-ct":
            assert value <= by_key[("default-ct", angle, reps)] + 1e-12


@pytest.mark.parametrize("reps", ["1,x", "0"])
def test_qpt_bad_reps_exits_2(runner, reps):
    result = runner.invoke(
        main, ["qpt", "--device", FRAGMENT, "--edge", "1,0", "--reps", reps,
               "--angles", "2"]
    )
    assert result.exit_code == 2
    assert "reps" in result.output


def test_qpt_unknown_edge_exits_2(runner):
    result = runner.invoke(
        main, ["qpt", "--device", FRAGMENT, "--edge", "0,4", "--gate", "zz"]
    )
    assert result.exit_code == 2


def test_lower_report_consistent_with_schedule_oracle(runner):
    result = runner.invoke(
        main,
        ["circuit", "lower", "--device", EHNINGEN, "--problem", K5,
         "--chain", "9,8,11,14,16", "--p", "2", "--opt", "zzopt"],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    rows = doc["gates"]
    # recompute the critical path independently from the report rows
    free = {}
    for row in rows:
        start = max((free.get(w, 0.0) for w in row["wires"]), default=0.0)
        assert start == pytest.approx(row["start_ns"], abs=1e-9)
        for w in row["wires"]:
            free[w] = start + row["duration_ns"]
    assert doc["total_duration_ns"] == pytest.approx(max(free.values()), abs=1e-9)
    assert doc["cx_count"] == sum(r["cx_cost"] for r in rows)


def test_benchmark_json_format(runner):
    result = runner.invoke(
        main,
        ["benchmark", "--device", SYNTH5, "--problem", K5,
         "--strategies", "global", "--opt-levels", "default", "--p", "1",
         "--shots", "2000", "--grid", "4", "--seed", "1"],
    )
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert len(rows) == 1
    assert rows[0]["strategy"] == "global"
    assert rows[0]["ar"] is not None


def test_device_summarize_csv(runner):
    result = runner.invoke(
        main,
        ["device", "summarize", str(data_path("ehningen_table1.json")),
         "--format", "csv"],
    )
    assert result.exit_code == 0
    assert result.output == TABLE1_SUMMARY_CSV
