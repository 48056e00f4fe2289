import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from bqaoa import cli, data_path, device, errors, qaoa, sim
from bqaoa.cli import main
from bqaoa.lower import lower_circuit

FRAGMENT = str(data_path("ehningen_fragment.json"))
EHNINGEN = str(data_path("ehningen.json"))
SYNTH5 = str(data_path("synthetic5.json"))
K5 = str(data_path("k5_maxcut.json"))
PORTOPT3 = str(data_path("portopt3.json"))


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


def test_chains_select_picks_the_chain_estimate_and_benchmark_use(runner):
    """Without --opt, bipotent ranks chains at zzswapopt, as select_chain_for does."""
    args = ["chains", "select", "--device", EHNINGEN, "--problem", PORTOPT3,
            "--strategy", "bipotent"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["chain"] == [22, 25, 26]
    estimate = runner.invoke(main, ["estimate"] + args[2:])
    assert json.loads(estimate.output)["chain"] == [22, 25, 26]
    result = runner.invoke(main, args + ["--opt", "default"])
    assert json.loads(result.output)["chain"] == [21, 23, 24]


def test_chains_select_accepts_problems_past_the_dense_limit(runner, tmp_path):
    """Selection holds no dense state, so a 12-asset portfolio selects a chain."""
    path = tmp_path / "portopt12.json"
    path.write_text(json.dumps(PORTOPT_12_DOC))
    result = runner.invoke(
        main, ["chains", "select", "--device", EHNINGEN, "--problem", str(path),
               "--strategy", "global"],
    )
    assert result.exit_code == 0, result.output
    assert len(json.loads(result.output)["chain"]) == 12


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
    # numpy refuses a negative seed and a shot count beyond int64
    simulate = ["simulate", "--device", SYNTH5, "--problem", K5, "--chain", "0,1,2,3,4"]
    result = runner.invoke(main, simulate + ["--shots", "10", "--seed", "-1"])
    assert result.exit_code == 2, result.output
    assert "seed" in result.output
    result = runner.invoke(main, simulate + ["--shots", "10"], env={"BQAOA_SEED": "-5"})
    assert result.exit_code == 2, result.output
    assert "seed" in result.output
    for command in (
        simulate,
        ["benchmark", "--device", SYNTH5, "--problem", K5, "--strategies", "global",
         "--opt-levels", "default", "--p", "1", "--grid", "2", "--max-evals", "4"],
    ):
        result = runner.invoke(main, command + ["--shots", "1" + "0" * 29])
        assert result.exit_code == 2, result.output
        assert "shots" in result.output


MAXCUT_DOC = json.loads(open(K5).read())
PORTOPT_DOC = json.loads(open(PORTOPT3).read())


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


#: a well-formed portfolio of 12 assets, two past the dense limit
PORTOPT_12_DOC = PORTOPT_DOC | {
    "mu": [0.05 + 0.01 * i for i in range(12)],
    "sigma": [[0.01 if i == j else 0.0 for j in range(12)] for i in range(12)],
}

#: malformed problem documents and the text their error must contain
BAD_PROBLEM_DOCS = {
    "maxcut-n-word": (MAXCUT_DOC | {"n": "five"}, "n:"),
    "maxcut-n-fraction": (MAXCUT_DOC | {"n": 4.5}, "n:"),
    "maxcut-n-bool": (MAXCUT_DOC | {"n": True}, "n:"),
    "maxcut-n-negative": (MAXCUT_DOC | {"n": -1}, "n:"),
    "maxcut-n-too-large": (MAXCUT_DOC | {"n": 1e12}, "n:"),
    "maxcut-n-beyond-int": (MAXCUT_DOC | {"n": 1e300}, "n:"),
    "maxcut-unknown-key": (MAXCUT_DOC | {"weights": [1.0]}, "weights:"),
    "maxcut-missing-n": (_without(MAXCUT_DOC, "n"), "'n'"),
    "maxcut-missing-edges": (_without(MAXCUT_DOC, "edges"), "'edges'"),
    "maxcut-missing-type": (_without(MAXCUT_DOC, "type"), "'type'"),
    "maxcut-type-number": (MAXCUT_DOC | {"type": 3}, "type"),
    "maxcut-edges-object": (MAXCUT_DOC | {"edges": {"0": [0, 1]}}, "edges:"),
    "maxcut-edge-triple": (MAXCUT_DOC | {"edges": [[0, 1], [0, 2, 3]]}, "edges[1]:"),
    "maxcut-edge-word": (MAXCUT_DOC | {"edges": [[0, "x"]]}, "edges[0][1]:"),
    "maxcut-edge-bool": (MAXCUT_DOC | {"edges": [[True, 1]]}, "edges[0][0]:"),
    "maxcut-edge-out-of-range": (MAXCUT_DOC | {"edges": [[0, 1], [3, 7]]}, "edges:"),
    "maxcut-edge-negative": (MAXCUT_DOC | {"edges": [[-1, 1]]}, "edges:"),
    "maxcut-self-loop": (MAXCUT_DOC | {"edges": [[0, 1], [2, 2]]}, "edges:"),
    "portopt-sigma-ragged": (
        PORTOPT_DOC | {"sigma": [PORTOPT_DOC["sigma"][0], [0.002, 0.012],
                                 PORTOPT_DOC["sigma"][2]]},
        "sigma:",
    ),
    "portopt-sigma-short": (PORTOPT_DOC | {"sigma": PORTOPT_DOC["sigma"][:2]}, "sigma:"),
    "portopt-sigma-asymmetric": (
        PORTOPT_DOC | {"sigma": [[0.01, 0.5, 0.001]] + PORTOPT_DOC["sigma"][1:]},
        "sigma:",
    ),
    "portopt-sigma-row-number": (
        PORTOPT_DOC | {"sigma": [PORTOPT_DOC["sigma"][0], 0.1, PORTOPT_DOC["sigma"][2]]},
        "sigma[1]:",
    ),
    "portopt-sigma-entry-word": (
        PORTOPT_DOC | {"sigma": [[0.1, "x"]] + PORTOPT_DOC["sigma"][1:]}, "sigma[0][1]:"
    ),
    "portopt-mu-object": (PORTOPT_DOC | {"mu": {"a": 1}}, "mu:"),
    "portopt-mu-word": (PORTOPT_DOC | {"mu": ["abc"] + PORTOPT_DOC["mu"][1:]}, "mu[0]:"),
    "portopt-B-bool": (PORTOPT_DOC | {"B": True}, "B:"),
    "portopt-B-fraction": (PORTOPT_DOC | {"B": 1.5}, "B:"),
    "portopt-B-zero": (PORTOPT_DOC | {"B": 0}, "B:"),
    "portopt-B-all-assets": (PORTOPT_DOC | {"B": 3}, "B:"),
    "portopt-q-word": (PORTOPT_DOC | {"q": "abc"}, "q:"),
    "portopt-q-bool": (PORTOPT_DOC | {"q": False}, "q:"),
    "portopt-q-above-one": (PORTOPT_DOC | {"q": 1.5}, "q:"),
    "portopt-A-null": (PORTOPT_DOC | {"A": None}, "A:"),
    "portopt-A-negative": (PORTOPT_DOC | {"A": -1.0}, "A:"),
    "portopt-lambda-zero": (PORTOPT_DOC | {"lambda": 0.0}, "lambda:"),
    "portopt-lambda-infinite": (PORTOPT_DOC | {"lambda": float("inf")}, "lambda:"),
    "portopt-missing-q": (_without(PORTOPT_DOC, "q"), "'q'"),
    "portopt-unknown-key": (PORTOPT_DOC | {"budget": 2}, "budget:"),
    "maxcut-n-past-dense-limit": (
        {"type": "maxcut", "n": 40, "edges": [[0, 1]]}, "n: 40 qubits exceeds dense limit"
    ),
    "portopt-mu-past-dense-limit": (PORTOPT_12_DOC, "mu: 12 qubits exceeds dense limit"),
}

_LOWER = ["circuit", "lower", "--device", SYNTH5, "--problem", K5]
_SIMULATE = ["simulate", "--device", SYNTH5, "--problem", K5, "--chain", "0,1,2,3,4",
             "--shots", "10"]
_BENCHMARK = ["benchmark", "--device", SYNTH5, "--problem", K5, "--strategies", "global",
              "--opt-levels", "default", "--p", "1", "--grid", "2", "--max-evals", "4",
              "--shots", "10"]
_NO_CHAIN = ["benchmark", "--device", FRAGMENT, "--problem", K5, "--p", "1"]
_QPT = ["qpt", "--device", FRAGMENT, "--angles", "1"]

#: malformed options of every command and the text their error must contain
BAD_OPTIONS = {
    "summarize-format": (["device", "summarize", FRAGMENT, "--format", "xml"], "--format"),
    "select-strategy": (
        ["chains", "select", "--device", SYNTH5, "--problem", K5, "--strategy", "x"],
        "--strategy",
    ),
    "select-opt": (
        ["chains", "select", "--device", SYNTH5, "--problem", K5, "--strategy", "global",
         "--opt", "x"],
        "--opt",
    ),
    "build-p-zero": (["circuit", "build", "--problem", K5, "--p", "0"], "--p"),
    "build-p-word": (["circuit", "build", "--problem", K5, "--p", "x"], "--p"),
    "build-gammas-count": (["circuit", "build", "--problem", K5, "--gammas", "0.1,0.2"],
                           "--gammas"),
    "build-gammas-nan": (["circuit", "build", "--problem", K5, "--gammas", "nan"],
                         "--gammas"),
    "build-betas-inf": (["circuit", "build", "--problem", K5, "--betas", "inf"], "--betas"),
    "build-betas-empty": (["circuit", "build", "--problem", K5, "--betas", ""], "--betas"),
    "build-p-huge": (["circuit", "build", "--problem", K5, "--p", str(10**12)], "--p"),
    "lower-chain-word": (_LOWER + ["--chain", "a,b"], "--chain"),
    "lower-chain-short": (_LOWER + ["--chain", "0,1"], "chain"),
    "lower-chain-off-device": (_LOWER + ["--chain", "0,1,2,3,99"], "chain"),
    "lower-chain-repeat": (_LOWER + ["--chain", "0,1,2,3,3"], "chain"),
    "lower-chain-no-edge": (
        ["circuit", "lower", "--device", FRAGMENT, "--problem", K5, "--chain", "0,4,1,2,3"],
        "share no edge"),
    "lower-opt": (_LOWER + ["--chain", "0,1,2,3,4", "--opt", "x"], "--opt"),
    "lower-p-zero": (_LOWER + ["--chain", "0,1,2,3,4", "--p", "0"], "--p"),
    "lower-p-huge": (_LOWER + ["--chain", "0,1,2,3,4", "--p", str(10**12)], "--p"),
    "estimate-chain-word": (
        ["estimate", "--device", SYNTH5, "--problem", K5, "--chain", "0,1,x"], "--chain"
    ),
    "estimate-p-negative": (["estimate", "--device", SYNTH5, "--problem", K5, "--p", "-2"],
                            "--p"),
    "estimate-strategy": (
        ["estimate", "--device", SYNTH5, "--problem", K5, "--strategy", "x"], "--strategy"
    ),
    "estimate-p-huge": (["estimate", "--device", SYNTH5, "--problem", K5, "--p", str(10**12)],
                        "--p"),
    "simulate-shots-zero": (_SIMULATE + ["--shots", "0"], "shots"),
    "simulate-shots-negative": (_SIMULATE + ["--shots", "-3"], "shots"),
    "simulate-shots-beyond-int64": (_SIMULATE + ["--shots", str(2**63)], "shots"),
    "simulate-seed-negative": (_SIMULATE + ["--seed", "-1"], "seed"),
    "simulate-seed-word": (_SIMULATE + ["--seed", "x"], "--seed"),
    "simulate-noise-scale-negative": (_SIMULATE + ["--noise-scale", "-1"], "noise scale"),
    "simulate-noise-scale-past-certainty": (_SIMULATE + ["--noise-scale", "1e308"],
                                            "noise scale"),
    "simulate-chain-off-device": (_SIMULATE + ["--chain", "0,1,2,3,9"], "chain"),
    # 0 and 4 are both on the fragment, but not neighbours
    "simulate-chain-no-edge": (
        ["simulate", "--device", FRAGMENT, "--problem", K5, "--chain", "0,4,1,2,3",
         "--shots", "10"], "share no edge"),
    "simulate-p-zero": (_SIMULATE + ["--p", "0"], "--p"),
    "simulate-p-huge": (_SIMULATE + ["--p", str(10**12)], "--p"),
    "optimize-p-word": (["optimize", "--problem", K5, "--p", "x"], "--p"),
    "optimize-p-huge": (["optimize", "--problem", K5, "--p", str(10**12)], "--p"),
    "optimize-grid-beyond-float": (["optimize", "--problem", K5, "--grid", "1" + "0" * 400],
                                   "--grid"),
    "optimize-max-evals-negative": (["optimize", "--problem", K5, "--max-evals", "-1"],
                                    "max-evals"),
    "benchmark-p-word": (_BENCHMARK + ["--p", "a..b"], "--p"),
    "benchmark-p-reversed": (_BENCHMARK + ["--p", "3..1"], "--p"),
    "benchmark-p-negative": (_BENCHMARK + ["--p", "-1,2"], "--p"),
    "benchmark-p-two-ranges": (_BENCHMARK + ["--p", "1..2..3"], "--p"),
    "benchmark-p-huge-range": (_BENCHMARK + ["--p", f"1..{10**12}"], "--p"),
    "benchmark-p-huge": (_BENCHMARK + ["--p", str(10**12)], "--p"),
    "benchmark-strategies": (_BENCHMARK + ["--strategies", "global,x"], "--strategies"),
    "benchmark-opt-levels": (_BENCHMARK + ["--opt-levels", "x"], "--opt-levels"),
    "benchmark-shots-zero": (_BENCHMARK + ["--shots", "0"], "shots"),
    "benchmark-shots-beyond-int64": (_BENCHMARK + ["--shots", str(2**63)], "shots"),
    "benchmark-max-evals-zero": (_BENCHMARK + ["--max-evals", "0"], "max-evals"),
    "benchmark-noise-scale-negative": (_BENCHMARK + ["--noise-scale", "-1"], "noise scale"),
    "benchmark-noise-scale-past-certainty": (_BENCHMARK + ["--noise-scale", "1e308"],
                                             "noise scale"),
    "benchmark-format": (_BENCHMARK + ["--format", "xml"], "--format"),
    # no strategy has a 5-qubit chain on the fragment, so no cell would sample
    "benchmark-no-chain-shots-zero": (_NO_CHAIN + ["--shots", "0"], "shots"),
    "benchmark-no-chain-noise-scale-negative": (_NO_CHAIN + ["--noise-scale", "-1"],
                                                "noise scale"),
    "benchmark-no-chain-noise-scale-nan": (_NO_CHAIN + ["--noise-scale", "nan"],
                                           "noise scale"),
    "qpt-edge-one-qubit": (_QPT + ["--edge", "1"], "--edge"),
    "qpt-edge-word": (_QPT + ["--edge", "a,b"], "--edge"),
    "qpt-edge-negative": (_QPT + ["--edge", "-1,0"], "--edge"),
    "qpt-edge-self": (_QPT + ["--edge", "1,1"], "edge"),
    "qpt-edge-off-device": (_QPT + ["--edge", "1,99"], "edge"),
    "qpt-gate": (_QPT + ["--edge", "1,0", "--gate", "cx"], "--gate"),
    "qpt-opt": (_QPT + ["--edge", "1,0", "--opt", "x"], "--opt"),
    "qpt-reps-reversed": (_QPT + ["--edge", "1,0", "--reps", "5..1"], "--reps"),
    "qpt-reps-huge-range": (_QPT + ["--edge", "1,0", "--reps", f"1..{10**12}"], "--reps"),
    "qpt-angles-word": (_QPT + ["--edge", "1,0", "--angles", "x"], "--angles"),
    "qpt-angles-zero": (_QPT + ["--edge", "1,0", "--angles", "0"], "--angles"),
    "qpt-angles-huge": (_QPT + ["--edge", "1,0", "--angles", str(10**12)], "--angles"),
    "qpt-noise-scale-negative": (_QPT + ["--edge", "1,0", "--noise-scale", "-1"],
                                 "noise scale"),
}


@pytest.mark.parametrize("extra", [[], ["--noise-scale", "0"]], ids=["scale-1", "scale-0"])
def test_simulate_refuses_an_unbounded_duration(runner, tmp_path, extra):
    # an sx of 1e308 ns made the schedule total inf: simulate printed
    # Infinity, and at noise scale 0 the idle time times 0 was NaN (exit 4)
    doc = json.loads(open(SYNTH5).read())
    doc["single_qubit_durations_ns"]["sx"] = 1e308
    path = tmp_path / "long_sx.json"
    path.write_text(json.dumps(doc))
    args = ["simulate", "--device", str(path), "--problem", K5, "--chain", "0,1,2,3,4",
            "--shots", "100", *extra]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "single_qubit_durations_ns[sx]:" in result.output


@pytest.mark.parametrize(
    "args, field",
    [(["optimize", "--problem", doc], field) for doc, field in BAD_PROBLEM_DOCS.values()]
    + list(BAD_OPTIONS.values()),
    ids=list(BAD_PROBLEM_DOCS) + list(BAD_OPTIONS),
)
def test_malformed_input_exits_2_naming_the_field(runner, tmp_path, args, field):
    if isinstance(args[-1], dict):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(args[-1]))
        args = args[:-1] + [str(path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert field in result.output


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
    # an error class under neither exit-code base would fall through to exit 4
    bases = (errors.InputError, errors.InfeasibleError)
    package_errors = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.BqaoaError)
        and cls not in (errors.BqaoaError,) + bases
    ]
    assert package_errors
    for cls in package_errors:
        homes = sum(issubclass(cls, base) for base in bases)
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


def test_optimize_large_grid_stops_at_the_budget(runner):
    # 333^6 grid points at p=3; only the first 50 are ever made
    result = runner.invoke(
        main, ["optimize", "--problem", K5, "--p", "3", "--grid", "1000",
               "--max-evals", "50"]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["evaluations"] == 50
    assert doc["budget_exhausted"] is True


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


@pytest.mark.parametrize("gate", ["zz", "cz", "zz_swap"])
def test_qpt_reads_the_largest_counts(runner, gate):
    """At --reps and --angles of MAX_COUNT the repeated target's Choi state
    is still pure.  The 1000th power of zz's 16x16 channel at angle
    638 pi / 1000 is not, to the purity test, so the ideal is built from
    U^reps."""
    top = str(cli.MAX_COUNT)
    result = runner.invoke(
        main,
        ["qpt", "--device", FRAGMENT, "--edge", "1,0", "--gate", gate,
         "--opt", "default", "--reps", top, "--angles", top, "--format", "csv"],
    )
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()[1:]
    assert len(lines) == 2 * cli.MAX_COUNT
    assert all(0.0 <= float(line.rsplit(",", 1)[1]) <= 1.0 for line in lines)


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
