"""Reading work vectors in tests: configurations in rank order, values as
Python ints, and constant shifts.

A plain module, not a test module, so that a test may import it from
anywhere, inside a ``@given`` body too, without collecting the tests of
another file.
"""

import itertools

import numpy as np

from kserver import InputError
from kserver.workfunction import WorkVector


def all_configs(space):
    """Every configuration of ``space`` in rank order, which is the order
    of ``itertools.combinations`` (``test_slots_follow_combinations``)."""
    return list(itertools.combinations(range(space.metric.n), space.k))


def vector_pairs(vector):
    """(configuration, value) for every entry of ``vector``, in rank order."""
    return list(zip(all_configs(vector.space), vector.values.tolist()))


def shifted(vector, offset):
    """``vector`` plus a constant everywhere, in int64, which updates
    commute with and decisions ignore.  ``verify`` relies on that without
    building the shifted vector; these tests check it."""
    values = vector.values + np.int64(offset)
    values.setflags(write=False)
    return WorkVector(vector.space, values)


def d_equivalence(first, second):
    """The constant by which two vectors differ everywhere, if one exists;
    entries are compared in int64, whatever their dtypes."""
    if (first.space.metric, first.space.k) != (second.space.metric, second.space.k):
        raise InputError("work vectors live on different configuration spaces")
    diff = first.values.astype(np.int64) - second.values
    offset = int(diff[0])
    if np.all(diff == offset):
        return offset
    return None
