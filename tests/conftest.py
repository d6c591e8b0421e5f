"""Shared fixtures: the run with every cache and host row off, and the
run without the machine's regress check."""

import contextlib
from unittest import mock

import pytest

from prcalc import machine, term
from prcalc.ordinal import ord_nat_sum


class _NoStore(dict):
    """A memo table that never keeps an entry."""

    def __setitem__(self, key, value):
        pass


@contextlib.contextmanager
def _off():
    # the machine's number-keyed reflected-step tables take no entries and
    # the structural evaluator has no host rows; facts kept on the nodes
    # stay, being functions of the node
    with mock.patch.multiple(machine, _estep_memo=_NoStore(),
                             _ccost_memo=_NoStore()), \
            mock.patch.object(term, "_HOST", {}):
        yield


@pytest.fixture
def caches_off():
    """The test runs with caches and host rows off."""
    with _off():
        yield


@pytest.fixture
def plain():
    """plain(fn, *args) calls fn with caches and host rows off, so the
    structural evaluator takes the plain tree walk at every node: the
    oracle for the host rows."""
    def run(fn, *args):
        with _off():
            return fn(*args)
    return run


@pytest.fixture
def regress_off():
    """regress_off(fn, *args) calls fn with the machine's regress check
    off: a reflective tower whose levels repeat then climbs until its
    fuel runs out.  The oracle for the check."""
    def run(fn, *args):
        with mock.patch.object(machine, "_repeats", lambda jobs: False):
            return fn(*args)
    return run


@pytest.fixture
def misprice(monkeypatch):
    """misprice(price) makes the machine price every code c at price(c):
    its complexity, and the cost of an application frame of c, price(c)
    plus one.  Both functions are patched whole rather than through the
    facts kept on the nodes, so no mispriced cost is stored on a shared
    node."""
    def set_price(price):
        monkeypatch.setattr(machine, "complexity", price)
        monkeypatch.setattr(machine, "apply_cost",
                            lambda c: ord_nat_sum(price(c), (1,)))
    return set_price
