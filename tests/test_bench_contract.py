"""What the benchmark under ``perfbench/`` needs from the package.

Its traced mode (``perfbench/run.py --trace 1``) wraps the functions that
``perfbench/tracer.py`` lists in ``LAYER_FUNCTIONS``, looking each up by
name, and reads the readout-mitigation quasi-probabilities with
``.values()``.  It times training by wrapping the closures that
``optimize.exact_expectation_evaluator`` returns, so training must get its
evaluator through that module-level name.  A rename, a changed return type
or an evaluator built some other way breaks that mode without failing
anything else, so the contract is checked here.  The tracer is
loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bqaoa import data_path, device, lower, optimize, qaoa, sim
from bqaoa.circuit import GateKind
from bqaoa.optimize import OptimizerConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_resolve(tracer):
    missing = [
        f"{module}.{name}"
        for module, names in tracer.LAYER_FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"bqaoa.{module}"), name, None))
    ]
    assert not missing


def test_mitigation_quasi_values_are_the_quasi_probabilities():
    confusions = [
        np.array([[0.97, 0.02], [0.03, 0.98]]),
        np.array([[0.95, 0.04], [0.05, 0.96]]),
    ]
    counts = np.array([700, 0, 20, 280])
    quasi, _ = sim.mitigate_readout(counts, confusions)
    # the tensor-product inverse, qubit 0 the least-significant bit
    inverse = np.kron(np.linalg.inv(confusions[1]), np.linalg.inv(confusions[0]))
    expected = inverse @ (counts / counts.sum())
    assert sorted(quasi.values()) == pytest.approx(sorted(expected[expected != 0]))
    assert any(v < 0 for v in quasi.values())  # the tracer counts negative mass


def test_checked_matrices_are_square_complex_arrays():
    # the benchmark's correctness check reads ``evolve(...).data`` and
    # ``choi_of(...).data``; on a bare ndarray ``.data`` is a memoryview
    dev = device.load_device(data_path("ehningen_fragment.json"))
    circ = qaoa.build_swap_network(
        qaoa.load_problem(data_path("portopt3.json")).ising,
        qaoa.ParamVector((0.4,), (0.3,)),
    )
    lowered = lower.lower_circuit(circ, (0, 1, 4), dev)
    rho = sim.evolve(lowered, sim.NoiseModel.from_device(dev, lowered.chain)).data
    edge = dev.edges[0]
    unit = lower.apply_rule(
        GateKind.ZZ, 0.7, (0, 1), (edge.control, edge.target), edge, dev,
        lower.OptLevel.DEFAULT,
    )
    choi = sim.choi_of(sim.composite_channel(unit, dev)).data
    for matrix, dim in ((rho, 8), (choi, 16)):
        assert isinstance(matrix, np.ndarray)
        assert matrix.shape == (dim, dim)
        assert np.iscomplexobj(matrix)


def test_depth_sweep_evaluates_through_the_traced_evaluator_name(monkeypatch):
    built, calls = [], []
    original = optimize.exact_expectation_evaluator

    def counting_factory(prob, sense):
        evaluate = original(prob, sense)
        built.append(prob)

        def counting(params):
            calls.append(params)
            return evaluate(params)

        return counting

    monkeypatch.setattr(optimize, "exact_expectation_evaluator", counting_factory)
    problem = qaoa.load_problem(data_path("portopt3.json"))
    sweep = optimize.optimize_depth_sweep(
        problem.ising, problem.sense, [1, 2], OptimizerConfig(max_evals=300)
    )
    assert built == [problem.ising]
    assert len(calls) == sum(result.evaluations for result in sweep.values())
