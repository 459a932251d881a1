"""Helpers for the reader fuzz tests: find the leaves of a parsed JSON value
and replace one of them with a value of another JSON type."""

from __future__ import annotations

import copy
import math

from hypothesis import strategies as st

# One value of each JSON type, kept small so no reader is asked for a huge
# allocation: string, int, float, NaN, bool, null, list and object.
OTHER_JSON_VALUES = st.one_of(
    st.text(max_size=2),
    st.integers(-2, 9),
    st.floats(-2.0, 9.0),
    st.just(math.nan),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "t"]), st.integers(0, 2), max_size=1),
)


def leaf_paths(value, path: tuple = ()) -> list[tuple]:
    """The key and index paths to every scalar (non-container) in ``value``."""
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in leaf_paths(item, (*path, key))]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in leaf_paths(item, (*path, i))]
    return [path]


def leaf(value, path: tuple):
    for step in path:
        value = value[step]
    return value


def replace_leaf(value, path: tuple, new):
    """A deep copy of ``value`` with the leaf at ``path`` set to ``new``."""
    value = copy.deepcopy(value)
    *parents, last = path
    leaf(value, tuple(parents))[last] = new
    return value


def other_type(old, new) -> bool:
    """Whether ``new`` is of another JSON type than ``old`` (a NaN is its own)."""
    nan = isinstance(new, float) and math.isnan(new)
    return nan or type(new) is not type(old)
