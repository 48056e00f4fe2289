"""Seeded input generation for the benchmark workloads.

Everything a workload feeds the program is made here from the workload
seed, as the JSON documents a user would write: problem documents go
through ``qaoa.problem_from_dict`` and angles through ``ParamVector``.
The same seed always gives the same documents, and ``digest`` fingerprints
them so a run record shows which inputs it measured.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def maxcut_doc(rng: np.random.Generator, n: int) -> dict:
    """A G(n, 1/2) MaxCut instance; edgeless draws are rejected (AR undefined)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        edges = [[i, j] for i, j in pairs if rng.random() < 0.5]
        if edges:
            return {"type": "maxcut", "n": n, "edges": edges}


def portfolio_doc(rng: np.random.Generator, n: int) -> dict:
    """A dense portfolio instance in the ranges of the bundled portopt5.json.

    sigma = F F^T / n + diag(d) with d > 0 is positive definite, and the
    symmetrisation (S + S^T) / 2 makes it exactly symmetric in floating point.
    """
    mu = rng.uniform(0.03, 0.15, n)
    factors = rng.normal(0.0, 0.05, (n, n))
    sigma = factors @ factors.T / n + np.diag(rng.uniform(0.002, 0.01, n))
    sigma = (sigma + sigma.T) / 2
    return {
        "type": "portopt",
        "mu": [float(v) for v in mu],
        "sigma": [[float(v) for v in row] for row in sigma],
        "q": float(rng.uniform(0.2, 0.6)),
        "B": int(rng.integers(2, n - 1)),
        "A": float(rng.uniform(0.05, 0.1)),
        "lambda": float(rng.uniform(10.0, 20.0)),
    }


def angles_doc(rng: np.random.Generator, p: int) -> dict:
    """Fixed QAOA angles: gammas in [0, pi), betas in [0, pi/2)."""
    return {
        "gammas": [float(v) for v in rng.uniform(0.0, np.pi, p)],
        "betas": [float(v) for v in rng.uniform(0.0, np.pi / 2, p)],
    }


def qpt_angles(rng: np.random.Generator, count: int) -> list[float]:
    """Interaction angles in (0, pi], the range the ``bqaoa qpt`` grid spans."""
    return [float(np.pi * (1.0 - rng.random())) for _ in range(count)]


def digest(docs: dict) -> str:
    """SHA-256 of the canonical JSON of a workload's generated documents."""
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
