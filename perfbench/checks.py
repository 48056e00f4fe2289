"""Output checks; every failed check counts against the row it belongs to.

The references are independent of the code under test where one exists:
noiseless AR comes from ``tests/oracles.py`` (dense product-form QAOA and
brute-force cost tables), and density and Choi matrices are checked with
plain numpy.  Golden values were recorded at the commit that introduced
the benchmark; quantities fixed before sampling are compared to 1e-12,
sampled AR/SP within a few shots.
"""

from __future__ import annotations

import importlib.util
import inspect
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

#: A last-ulp change in a probability can move a multinomial draw by a shot
#: or two, and the draws after it in turn; allow this many shots of slack.
SHOT_SLACK = 10
#: Relative tolerance for deterministic, pre-sampling quantities.
EXACT_TOL = 1e-12
#: Absolute tolerance of the Hermitian, trace and eigenvalue checks.
DENSITY_TOL = 1e-9


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` of the checkout under a private name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", root / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def density_problem(mat: np.ndarray) -> str:
    """Why ``mat`` is not a density matrix, or '' if it is one."""
    if not np.allclose(mat, mat.conj().T, rtol=0.0, atol=DENSITY_TOL):
        return "not Hermitian"
    trace = np.trace(mat)
    if abs(trace - 1.0) > DENSITY_TOL:
        return f"trace {trace} is not 1"
    lowest = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
    if lowest < -DENSITY_TOL:
        return f"eigenvalue {lowest} below -{DENSITY_TOL}"
    return ""


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= EXACT_TOL * max(1.0, abs(b))


class Capture:
    """Density and Choi matrices computed in a pass, grouped by the call whose
    output row they feed: ``evaluate_noisy`` by its seed, ``qpt_infidelities``
    by (control, target, gate, opt level).

    They are caught where ``sim.evolve`` and ``sim.choi_of`` return them; a
    program that stops calling those leaves nothing to check, which
    ``checked`` shows.
    """

    def __init__(self):
        self.groups: dict[object, list[np.ndarray]] = defaultdict(list)
        self.checked = 0
        self._key = None
        self._verdicts: dict[object, str] = {}

    def replacements(self) -> dict:
        return {
            ("sim", "evolve"): lambda fn: self._keep(fn, lambda rho: rho.data),
            ("sim", "choi_of"): lambda fn: self._keep(fn, lambda choi: choi.data),
            ("optimize", "evaluate_noisy"): lambda fn: self._group(
                fn, lambda a: ("noisy", a["seed"])
            ),
            ("sim", "qpt_infidelities"): lambda fn: self._group(
                fn,
                lambda a: qpt_key(
                    a["edge"].control, a["edge"].target, a["target"].value, a["opt"].value
                ),
            ),
        }

    def _keep(self, fn, matrix_of):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.groups[self._key].append(matrix_of(result))
            return result

        return wrapper

    def _group(self, fn, key_of):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            outer = self._key
            self._key = key_of(signature.bind(*args, **kwargs).arguments)
            try:
                return fn(*args, **kwargs)
            finally:
                self._key = outer

        return wrapper

    def problems(self, key) -> str:
        """First density-matrix problem found under ``key`` ('' if none)."""
        if key not in self._verdicts:
            matrices = self.groups.get(key, ())
            self.checked += len(matrices)
            found = (density_problem(mat) for mat in matrices)
            self._verdicts[key] = next((p for p in found if p), "")
        return self._verdicts[key]

    def clear(self) -> None:
        self.groups.clear()
        self._verdicts.clear()


def qpt_key(control: int, target: int, gate: str, opt: str) -> tuple:
    return ("qpt", control, target, gate, opt)


def doc_cost_table(oracles, doc: dict) -> np.ndarray:
    """Brute-force classical cost of every basis state, from the document."""
    if doc["type"] == "maxcut":
        n, edges = doc["n"], [tuple(e) for e in doc["edges"]]
        return np.array([oracles.cut_size(z, n, edges) for z in range(2**n)], float)
    return oracles.portfolio_cost_table(
        doc["mu"], doc["sigma"], doc["q"], doc["B"], doc["A"], doc["lambda"]
    )


def oracle_ar(oracles, problem, doc: dict, gammas, betas) -> float:
    """Noiseless AR of product-form QAOA at the given angles, by the oracles."""
    prob = problem.ising
    u = oracles.qaoa_unitary(prob.n, prob.j, prob.h, prob.constant, gammas, betas)
    probs = np.abs(u[:, 0]) ** 2
    mean, opt, _ = oracles.distribution_metrics(
        doc_cost_table(oracles, doc),
        dict(enumerate(probs)),
        problem.sense,
        feasible_weight=doc.get("B"),
    )
    return mean / opt


def sp_tolerance(doc: dict, shots: int) -> float:
    """SP tolerance worth SHOT_SLACK shots.

    Budget post-selection divides by the feasible share; it is taken as a
    uniform distribution's C(n, B) / 2^n, the share with no preference for
    the budget.
    """
    if "B" not in doc:
        return SHOT_SLACK / shots
    n = len(doc["mu"])
    return SHOT_SLACK / shots / (math.comb(n, doc["B"]) / 2**n)


def ar_tolerance(oracles, doc: dict, sense: str, shots: int) -> float:
    """AR tolerance: the SP tolerance scaled by the feasible cost span over the optimum."""
    costs = doc_cost_table(oracles, doc)
    if "B" in doc:
        weights = np.array([bin(z).count("1") for z in range(len(costs))])
        costs = costs[weights == doc["B"]]
    opt = costs.min() if sense == "min" else costs.max()
    return sp_tolerance(doc, shots) * (costs.max() - costs.min()) / abs(opt)
