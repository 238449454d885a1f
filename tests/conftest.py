import random

import pytest

from ultrastab.gbs_criteria import GBSGraph
from ultrastab.ultranorm_linalg import UMatrix


def random_gl(ring, n, rng):
    while True:
        m = UMatrix.random(ring, n, rng)
        if m.is_gl():
            return m


def shifted_random(ring, n, rng, k):
    """A random matrix with every entry of valuation >= k."""
    base = UMatrix.random(ring, n, rng)
    return UMatrix(ring, n, tuple(tuple(ring.shift_up(x, k) for x in row)
                                  for row in base.rows))


def bs_graph(m, n):
    """The one-loop GBS graph of BS(m, n) = <s, t | t s^n t^{-1} = s^m>."""
    return GBSGraph(("v",), (("v", "v", n, m),))


@pytest.fixture
def rng():
    return random.Random(20260809)
