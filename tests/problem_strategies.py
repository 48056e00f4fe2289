"""Hypothesis strategies for random problems, shared by the property tests.

Each strategy draws ``(prob, costs, sense)``: the package encoding, the
oracle's cost of every outcome (little-endian index) and the sense.
"""

import numpy as np
from hypothesis import strategies as st

import oracles
from bqaoa import qaoa


@st.composite
def maxcut_problems(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    prob = qaoa.encode_maxcut(qaoa.MaxCutInstance(n, frozenset(edges)))
    costs = np.array([oracles.cut_size(z, n, edges) for z in range(2**n)], float)
    return prob, costs, "max"


@st.composite
def portfolio_problems(draw, max_n=6):
    n = draw(st.integers(3, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = rng.uniform(0.03, 0.15, n)
    factors = rng.normal(0.0, 0.05, (n, n))
    sigma = factors @ factors.T / n + np.diag(rng.uniform(0.002, 0.01, n))
    sigma = (sigma + sigma.T) / 2
    q, penalty, lam = rng.uniform(0.2, 0.6), rng.uniform(0.0, 0.1), rng.uniform(1, 20)
    budget = draw(st.integers(1, n - 1))
    inst = qaoa.PortfolioInstance(
        n, tuple(mu), tuple(map(tuple, sigma)), q, budget, penalty, lam
    )
    costs = oracles.portfolio_cost_table(mu, sigma, q, budget, penalty, lam)
    return qaoa.encode_portopt(inst), costs, "min"
