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


def random_raw(ring, rng):
    """A uniform element of the ring: one draw in Z/p^K, K digits in F_p[X]/(X^K)."""
    if ring.is_mixed:
        return rng.randrange(ring.modulus)
    return ring.from_coeffs([rng.randrange(ring.p) for _ in range(ring.precision)])


def random_unit(ring, rng):
    while True:
        x = random_raw(ring, rng)
        if ring.is_unit(x):
            return x


def random_matrix(ring, n, rng):
    """An n x n matrix of uniform entries, drawn row by row."""
    return UMatrix(ring, n, tuple(tuple(random_raw(ring, rng) for _ in range(n))
                                  for _ in range(n)))


def random_gl(ring, n, rng):
    while True:
        m = random_matrix(ring, n, rng)
        if m.is_gl():
            return m


def shifted_random(ring, n, rng, k):
    """A random matrix with every entry of valuation >= k."""
    base = random_matrix(ring, n, rng)
    return UMatrix(ring, n, tuple(tuple(ring.shift_up(x, k) for x in row)
                                  for row in base.rows))


def zero_matrix(ring, n):
    return UMatrix(ring, n, tuple((0,) * n for _ in range(n)))


def matnorm(m):
    """The sup norm of a matrix: the norm of its least-valuation entry."""
    return NormValue.from_valuation(m.ring, m.min_valuation())


def schoolbook(ring, x, y):
    """x + y and x * y by schoolbook arithmetic: integers mod p^K over
    Z/p^K; over F_p[X]/(X^K), the digitwise sum and the convolution mod p,
    truncated at K, of the coefficients read through RingSpec.digit."""
    K, p = ring.precision, ring.p
    if ring.is_mixed:
        return (x + y) % p ** K, x * y % p ** K
    a = [ring.digit(x, j) for j in range(K)]
    b = [ring.digit(y, j) for j in range(K)]
    return (ring.from_coeffs([a[j] + b[j] for j in range(K)]),
            ring.from_coeffs([sum(a[m] * b[j - m] for m in range(j + 1))
                              for j in range(K)]))


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
