"""Fuzz of the document boundary: a bundled device or problem document with
one value replaced, at any depth, or one key deleted either loads or raises
a configuration error (CLI exit 2), never anything else."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from bqaoa import data_path
from bqaoa.device import device_from_dict
from bqaoa.errors import InputError
from bqaoa.qaoa import problem_from_dict

DEVICES = (
    "ehningen.json", "ehningen_fragment.json", "ehningen_table1.json",
    "synthetic5.json",
)
PROBLEMS = ("k5_maxcut.json", "portopt3.json", "portopt5.json")
DELETE = object()
MUTATIONS = st.one_of(
    st.just(DELETE),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 10**400, 10**12]),
    # numeric-looking text: "1e9", "inf" and "nan" parse as numbers
    st.text(alphabet="0123456789.-eainfxz_", max_size=5),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.sampled_from(["sx", "zz", "foo"]), st.integers(), max_size=2),
)


def keys(node) -> list:
    return list(node) if isinstance(node, dict) else list(range(len(node)))


@st.composite
def mutated(draw, names):
    """One bundled document with one value replaced or one key deleted.

    The value is found by a walk from the root that descends into a
    non-empty container with probability 1/2, so each top-level field is as
    likely to be hit as the whole of a long list of entries."""
    doc = json.loads(data_path(draw(st.sampled_from(names))).read_text())
    parent, key = doc, draw(st.sampled_from(keys(doc)))
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
        parent, key = parent[key], draw(st.sampled_from(keys(parent[key])))
    value = draw(MUTATIONS)
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated(DEVICES))
def test_mutated_device_loads_or_raises_config_error(doc):
    try:
        device_from_dict(doc)
    except InputError:
        pass


@settings(max_examples=300, deadline=None)
@given(mutated(PROBLEMS))
def test_mutated_problem_loads_or_raises_config_error(doc):
    try:
        problem_from_dict(doc)
    except InputError:
        pass
