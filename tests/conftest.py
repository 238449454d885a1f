import random

import pytest

from ultrastab.gbs_criteria import GBSGraph
from ultrastab.local_ring import NormValue
from ultrastab.ultranorm_linalg import UMatrix


def matrix_power(m, e):
    """m^e for e >= 0, by repeated squaring."""
    result = UMatrix.identity(m.ring, m.n)
    while e:
        if e & 1:
            result = result @ m
        m = m @ m
        e >>= 1
    return result


def norm_power(v, e):
    """The norm v^e for e >= 0, saturated past the precision."""
    if v.saturated:
        return v
    return NormValue(v.p, v.K, v.exponent * e, v.exponent * e >= v.K)


def shifted_random(ring, n, rng, k):
    """A random matrix with every entry of valuation >= k."""
    base = UMatrix.random(ring, n, rng)
    return UMatrix(ring, n, tuple(tuple(ring.shift_up(x, k) for x in row)
                                  for row in base.rows))


def class_product(C, i, j):
    """The class of i j in the finite image C: j's tree word walked through
    C's right Cayley table, a reference that the package does not keep."""
    word = []
    while j:
        j, g = C.tree[j]
        word.append(g)
    for g in reversed(word):
        i = C.right[i][g]
    return i


def bs_graph(m, n):
    """The one-loop GBS graph of BS(m, n) = <s, t | t s^n t^{-1} = s^m>."""
    return GBSGraph(("v",), (("v", "v", n, m),))


@pytest.fixture
def rng():
    return random.Random(20260809)
