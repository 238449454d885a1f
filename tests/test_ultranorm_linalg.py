import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ultrastab.local_ring import NormValue, RingSpec
from ultrastab.ultranorm_linalg import (
    MonomialBoundExceeded,
    NonInvertible,
    NotInBall,
    NotMonomial,
    UMatrix,
    Unsolvable,
    _smith_raw,
    matmul_sum,
    nearest_monomial_commutant,
    solve_linear,
)

from conftest import random_gl


def test_matnorm_examples():
    ring = RingSpec("zp", 2, 4)
    ident = UMatrix.identity(ring, 2)
    assert ident.matnorm() == NormValue.one(ring)
    a = UMatrix.from_int_rows(ring, [[4, 0], [0, 8]])
    assert a.matnorm() == NormValue.from_valuation(ring, 2)
    assert UMatrix.zero(ring, 2).matnorm().saturated


def test_matinv_examples():
    ring = RingSpec("zp", 2, 6)
    assert UMatrix.identity(ring, 2).inv() == UMatrix.identity(ring, 2)
    m = UMatrix.from_int_rows(ring, [[1, 1], [0, 1]])
    assert m.inv().rows == ((1, 63), (0, 1))
    bad = UMatrix.from_int_rows(ring, [[2, 0], [0, 1]])
    assert not bad.is_gl()
    with pytest.raises(NonInvertible):
        bad.inv()


def test_inverse_is_exact(rng):
    for mode, p, K, n in [("zp", 2, 8, 3), ("fpx", 2, 6, 3), ("zp", 5, 4, 2)]:
        ring = RingSpec(mode, p, K)
        ident = UMatrix.identity(ring, n)
        for _ in range(30):
            u = random_gl(ring, n, rng)
            assert (u @ u.inv()).rows == ident.rows
            assert (u.inv() @ u).rows == ident.rows


def test_dist_examples(rng):
    ring = RingSpec("zp", 3, 4)
    ident = UMatrix.identity(ring, 2)
    assert ident.dist(ident).saturated
    e12 = UMatrix.from_int_rows(ring, [[0, 9], [0, 0]])
    assert ident.dist(ident + e12) == NormValue.from_valuation(ring, 2)
    # conjugation invariance
    for _ in range(25):
        a = UMatrix.random(ring, 2, rng)
        b = UMatrix.random(ring, 2, rng)
        p_ = random_gl(ring, 2, rng)
        pinv = p_.inv()
        assert (p_ @ a @ pinv).dist(p_ @ b @ pinv) == a.dist(b)


def test_congruence_coords():
    ring = RingSpec("zp", 2, 6)
    ident = UMatrix.identity(ring, 2)
    assert ident.congruence_coords(3).rows == UMatrix.zero(ring, 2).rows
    a = UMatrix.from_int_rows(ring, [[5, 0], [0, 1]])
    m = a.congruence_coords(2)
    assert m.rows == ((1, 0), (0, 0))
    assert m.congruence_lift(2).rows == a.rows
    with pytest.raises(NotInBall):
        UMatrix.from_int_rows(ring, [[3, 0], [0, 1]]).congruence_coords(2)


def test_congruence_group_law(rng):
    # coords(AB) == coords(A) + coords(B) mod w^k on the congruence subgroup
    for mode in ("zp", "fpx"):
        ring = RingSpec(mode, 2, 8)
        k = 3
        for _ in range(25):
            m1 = UMatrix.random(ring, 2, rng)
            m2 = UMatrix.random(ring, 2, rng)
            a, b = m1.congruence_lift(k), m2.congruence_lift(k)
            lhs = (a @ b).congruence_coords(k)
            rhs = a.congruence_coords(k) + b.congruence_coords(k)
            assert (lhs - rhs).min_valuation() >= k


def test_smith_reconstruction(rng):
    for mode, p, K, n in [("zp", 2, 5, 3), ("zp", 3, 4, 4), ("fpx", 2, 5, 3)]:
        ring = RingSpec(mode, p, K)
        for _ in range(40):
            a = UMatrix.random(ring, n, rng)
            # with the identity as side block, _smith_raw returns U itself
            U, V, diag = _smith_raw(ring, a.rows, UMatrix.identity(ring, n).rows)
            U, V = UMatrix.from_rows(ring, U), UMatrix.from_rows(ring, V)
            assert U.is_gl() and V.is_gl()
            assert diag == sorted(diag)
            want = [[ring.omega_pow(d) if i == j else 0 for j in range(n)]
                    for i, d in enumerate(diag)]
            assert (U @ a @ V).rows == tuple(map(tuple, want))


def test_solve_examples():
    ring = RingSpec("zp", 2, 3)
    a = UMatrix.from_int_rows(ring, [[2]])
    res = solve_linear(a, [4])
    assert res.particular == (2,)
    assert res.kernel[0][0] == 2  # solutions {2, 6} mod 8
    with pytest.raises(Unsolvable) as ei:
        solve_linear(a, [1])
    assert ei.value.obstruction_valuation == 0
    ident = UMatrix.identity(ring, 3)
    res = solve_linear(ident, [1, 2, 3])
    assert res.particular == (1, 2, 3)


def test_solve_random_verified(rng):
    ring = RingSpec("zp", 2, 5)
    for _ in range(40):
        n = rng.randrange(1, 5)
        a = UMatrix.random(ring, n, rng)
        x = [ring.random_raw(rng) for _ in range(n)]
        b = [ring.dot(row, x) for row in a.rows]
        res = solve_linear(a, b)
        check = [ring.dot(row, res.particular) for row in a.rows]
        assert check == b
        # kernel vectors are honest solutions of Ax = 0
        for kv, gen in res.kernel:
            img = [ring.dot(row, gen) for row in a.rows]
            assert all(v == 0 for v in img)


TINY_RINGS = (RingSpec("zp", 2, 3), RingSpec("zp", 3, 2), RingSpec("fpx", 2, 3))


@st.composite
def _tiny_systems(draw):
    """(ring, rows, b) over Z/8, Z/9 or F_2[X]/(X^3); up to 4 x 3, some rows zero."""
    ring = draw(st.sampled_from(TINY_RINGS))
    entry = st.sampled_from(list(ring.iter_all()))
    nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    zeroed = draw(st.sets(st.integers(0, nr - 1), max_size=nr - 1))
    rows = [[0] * nc if i in zeroed else r for i, r in enumerate(rows)]
    if draw(st.booleans()):  # consistent by construction
        x = draw(st.lists(entry, min_size=nc, max_size=nc))
        b = [ring.dot(r, x) for r in rows]
    else:
        b = draw(st.lists(entry, min_size=nr, max_size=nr))
    return ring, rows, b


@settings(max_examples=300, deadline=None)
@given(_tiny_systems())
@example((TINY_RINGS[0], [[2, 4, 6]], [4]))                      # nr < nc
@example((TINY_RINGS[1], [[3], [6], [0]], [3, 6, 1]))            # nr > nc, zero row
@example((TINY_RINGS[2], [[0, 0], [0, 0]], [0, 0]))              # all rows zero
def test_solve_linear_matches_enumeration(system):
    # every x in R^nc is tried: a solution exists exactly when solve_linear
    # returns one, and the kernel lattice it reports counts all solutions
    ring, rows, b = system
    nc = len(rows[0])
    sols = {x for x in itertools.product(ring.iter_all(), repeat=nc)
            if [ring.dot(r, x) for r in rows] == b}
    if not sols:
        with pytest.raises(Unsolvable):
            solve_linear(rows, b, ring)
        return
    res = solve_linear(rows, b, ring)
    assert tuple(res.particular) in sols
    diag = res.diag_vals
    K = ring.precision
    assert math.prod(ring.p ** (diag[j] if j < len(diag) else K) for j in range(nc)) == len(sols)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["zp", "fpx"]), st.sampled_from([2, 5, 257]), st.integers(1, 16),
       st.integers(1, 4), st.integers(1, 40), st.booleans(), st.integers(0, 2 ** 32))
def test_matmul_sum_matches_sum_of_products(mode, p, K, n, m, extreme, seed):
    # one dot of length n m per entry against m products and m - 1 sums; the
    # extreme inputs are mostly p - 1 in every digit, the largest slot sums
    ring = RingSpec(mode, p, K)
    rng = random.Random(seed)
    top = ring.from_int(-1) if ring.is_mixed else ring.from_coeffs([p - 1] * K)

    def entry():
        return top if extreme and rng.random() < 0.8 else ring.random_raw(rng)

    lefts, rights = ([UMatrix(ring, n, tuple(tuple(entry() for _ in range(n)) for _ in range(n)))
                      for _ in range(m)] for _ in range(2))
    want = lefts[0] @ rights[0]
    for a, b in zip(lefts[1:], rights[1:]):
        want = want + a @ b
    assert matmul_sum(lefts, rights).rows == want.rows


# -- the product kernel against the schoolbook product ------------------------


def _schoolbook(ring, a_rows, b_rows):
    """The triple loop over RingSpec.mul and RingSpec.add."""
    n = len(a_rows)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = ring.add(acc, ring.mul(a_rows[i][k], b_rows[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _kernel_matrix(ring, n, rng, extreme):
    """Random entries, or with `extreme` mostly the largest: p^K - 1 in Z/p^K,
    every coefficient p - 1 in F_p[X]/(X^K)."""
    top = ring.from_int(-1) if ring.is_mixed else ring.from_coeffs([ring.p - 1] * ring.precision)
    return UMatrix(ring, n, tuple(tuple(top if extreme and rng.random() < 0.8
                                        else ring.random_raw(rng) for _ in range(n))
                                  for _ in range(n)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["zp", "fpx"]), st.sampled_from([2, 3, 5, 1021]), st.integers(1, 64),
       st.integers(1, 32), st.booleans(), st.integers(0, 2 ** 32))
@example("zp", 1021, 64, 32, True, 0)     # widest elements, largest n
@example("fpx", 1021, 64, 17, True, 1)    # widest slots, one product past SUM_TERMS
@example("fpx", 2, 64, 32, True, 2)
@example("zp", 2, 8, 24, True, 3)
@example("fpx", 5, 8, 24, False, 4)
def test_matmul_matches_schoolbook(mode, p, K, n, extreme, seed):
    # both ways a product reads the right factor: packed on a miss, and
    # from its cache on a hit
    ring = RingSpec(mode, p, K)
    rng = random.Random(seed)
    a, b = _kernel_matrix(ring, n, rng, extreme), _kernel_matrix(ring, n, rng, extreme)
    want = _schoolbook(ring, a.rows, b.rows)
    assert (a @ b).rows == want                      # miss: b's rows are packed
    assert (a @ b).rows == want                      # hit
    assert (b @ a).rows == _schoolbook(ring, b.rows, a.rows)   # b as a left factor


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["zp", "fpx"]), st.sampled_from([2, 3, 5, 1021]), st.integers(1, 64),
       st.integers(1, 8), st.integers(1, 24), st.booleans(), st.integers(0, 2 ** 32))
@example("fpx", 1021, 64, 4, 24, True, 0)  # 96 products a row, six reductions
@example("zp", 1021, 64, 8, 24, True, 1)
@example("fpx", 2, 64, 3, 17, True, 2)
@example("fpx", 5, 8, 4, 24, True, 3)      # six reductions over F_5[X]/(X^8)
def test_matmul_sum_matches_schoolbook(mode, p, K, n, m, extreme, seed):
    # n m products a row cross SUM_TERMS for m > 16 / n; the rights are read
    # from their cache on the second call, at the width matmul_sum packed
    # them, and read again by a single product afterwards (repacked for
    # Z/p^K's narrower fields)
    ring = RingSpec(mode, p, K)
    rng = random.Random(seed)
    lefts = [_kernel_matrix(ring, n, rng, extreme) for _ in range(m)]
    rights = [_kernel_matrix(ring, n, rng, extreme) for _ in range(m)]
    want = _schoolbook(ring, lefts[0].rows, rights[0].rows)
    for a, b in zip(lefts[1:], rights[1:]):
        want = tuple(tuple(ring.add(x, y) for x, y in zip(r, t))
                     for r, t in zip(want, _schoolbook(ring, a.rows, b.rows)))
    assert matmul_sum(lefts, rights).rows == want
    assert matmul_sum(lefts, rights).rows == want
    assert (lefts[0] @ rights[0]).rows == _schoolbook(ring, lefts[0].rows, rights[0].rows)


def test_monomial_commutant_swap_example():
    ring = RingSpec("zp", 2, 6)
    p_mat = UMatrix.from_int_rows(ring, [[0, 1], [1, 0]])
    d_mat = UMatrix.from_int_rows(ring, [[5, 0], [0, 9]])
    out = nearest_monomial_commutant(p_mat, d_mat)
    assert out.rows == ((5, 0), (0, 5))
    eps = ((p_mat @ d_mat) - (d_mat @ p_mat)).matnorm()
    assert (d_mat - out).matnorm() == eps  # |5 - 9| = 2^-2 both sides


def test_monomial_commutant_commuting_input():
    ring = RingSpec("zp", 3, 4)
    p_mat = UMatrix.from_int_rows(ring, [[0, 1], [1, 0]])
    d_mat = UMatrix.from_int_rows(ring, [[7, 2], [2, 7]])
    out = nearest_monomial_commutant(p_mat, d_mat)
    assert out.rows == d_mat.rows


def _cycle_monomial(ring, n, rng):
    """Random monomial matrix whose permutation is a full n-cycle; on these
    every pair orbit has trivial scalar product, the regime the distance
    bound is stated for."""
    start = list(range(n))
    rng.shuffle(start)
    perm = [0] * n
    for a, b in zip(start, start[1:] + start[:1]):
        perm[a] = b
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][perm[i]] = ring.random_unit(rng)
    return UMatrix(ring, n, tuple(tuple(r) for r in rows))


def test_monomial_commutant_random(rng):
    for mode, p, K in [("zp", 2, 6), ("zp", 5, 4), ("fpx", 2, 6)]:
        ring = RingSpec(mode, p, K)
        for _ in range(60):
            n = rng.randrange(2, 7)
            p_mat = _cycle_monomial(ring, n, rng)
            d_mat = UMatrix.random(ring, n, rng)
            out = nearest_monomial_commutant(p_mat, d_mat)
            assert ((p_mat @ out) - (out @ p_mat)).min_valuation() >= K
            eps = ((p_mat @ d_mat) - (d_mat @ p_mat)).matnorm()
            assert (d_mat - out).matnorm() <= eps


def test_monomial_commutant_unit_scaled_permutations(rng):
    # arbitrary permutation shape with all entries 1: orbit products trivial
    ring = RingSpec("zp", 3, 5)
    for _ in range(40):
        n = rng.randrange(2, 7)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][perm[i]] = 1
        p_mat = UMatrix(ring, n, tuple(tuple(r) for r in rows))
        d_mat = UMatrix.random(ring, n, rng)
        out = nearest_monomial_commutant(p_mat, d_mat)
        assert ((p_mat @ out) - (out @ p_mat)).min_valuation() >= 5
        eps = ((p_mat @ d_mat) - (d_mat @ p_mat)).matnorm()
        assert (d_mat - out).matnorm() <= eps


def test_monomial_commutant_wraparound_obstruction():
    # diag(1, 3) over Z/2^6: the exact commutant kills the off-diagonal
    # entries, which sit a factor 2 beyond the commutator defect.  The
    # construction reports the bound as exceeded rather than faking it.
    ring = RingSpec("zp", 2, 6)
    p_mat = UMatrix.from_int_rows(ring, [[1, 0], [0, 3]])
    d_mat = UMatrix.from_int_rows(ring, [[0, 1], [0, 0]])
    with pytest.raises(MonomialBoundExceeded) as ei:
        nearest_monomial_commutant(p_mat, d_mat)
    out = ei.value.result
    assert ((p_mat @ out) - (out @ p_mat)).min_valuation() >= 6


def test_monomial_rejects_non_monomial():
    ring = RingSpec("zp", 2, 4)
    with pytest.raises(NotMonomial):
        nearest_monomial_commutant(UMatrix.identity(ring, 2) + UMatrix.identity(ring, 2),
                                   UMatrix.identity(ring, 2))
