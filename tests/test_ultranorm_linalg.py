import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ultrastab.local_ring import NormValue, RingError, RingSpec
from ultrastab.ultranorm_linalg import (
    MonomialBoundExceeded,
    NonInvertible,
    NotInBall,
    NotMonomial,
    UMatrix,
    Unsolvable,
    nearest_monomial_commutant,
    solve_linear,
)

from conftest import matnorm, random_gl, random_matrix, random_raw, random_unit, zero_matrix



def test_matnorm_examples():
    ring = RingSpec("zp", 2, 4)
    ident = UMatrix.identity(ring, 2)
    assert matnorm(ident) == NormValue.from_valuation(ring, 0)
    a = UMatrix.from_int_rows(ring, [[4, 0], [0, 8]])
    assert matnorm(a) == NormValue.from_valuation(ring, 2)
    assert matnorm(zero_matrix(ring, 2)).saturated


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
        a = random_matrix(ring, 2, rng)
        b = random_matrix(ring, 2, rng)
        p_ = random_gl(ring, 2, rng)
        pinv = p_.inv()
        assert (p_ @ a @ pinv).dist(p_ @ b @ pinv) == a.dist(b)


def test_congruence_coords():
    ring = RingSpec("zp", 2, 6)
    ident = UMatrix.identity(ring, 2)
    assert ident.congruence_coords(3).rows == zero_matrix(ring, 2).rows
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
            m1 = random_matrix(ring, 2, rng)
            m2 = random_matrix(ring, 2, rng)
            a, b = m1.congruence_lift(k), m2.congruence_lift(k)
            lhs = (a @ b).congruence_coords(k)
            rhs = a.congruence_coords(k) + b.congruence_coords(k)
            assert (lhs - rhs).min_valuation() >= k


# -- the local Smith form, the solver's oracle --------------------------------


def smith_raw(ring, rows, side):
    """Bring a rectangular raw matrix to diagonal uniformizer powers.

    Returns (side', V, diag) with V (nc x nc) invertible and U @ A @ V
    diagonal for the invertible U (nr x nr) of the row operations; U itself
    is never formed, every row operation is applied to the nr-row block
    `side` instead, so side' = U @ side (pass b to read U @ b, the identity
    to read U).  Pivots are chosen with minimal valuation, ties broken by
    lowest row then column index, and the row operations clear each pivot
    column, the column operations (on V alone) each pivot row.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    K = ring.precision
    m = [list(r) for r in rows]
    side = [list(r) for r in side]
    Vt = [[ring.one if i == j else 0 for j in range(nc)] for i in range(nc)]  # columns of V
    submul = ring.row_submul
    diag = []
    steps = min(nr, nc)
    for t in range(steps):
        best, best_v = None, K
        for i in range(t, nr):
            for j in range(t, nc):
                a = m[i][j]
                if a and ring.val(a) < best_v:
                    best_v, best = ring.val(a), (i, j)
        if best is None:
            diag.extend([K] * (steps - t))
            break
        bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        side[t], side[bi] = side[bi], side[t]
        for r in m[t:]:
            r[t], r[bj] = r[bj], r[t]
        Vt[t], Vt[bj] = Vt[bj], Vt[t]
        d = best_v
        diag.append(d)
        uinv = ring.inv(ring.shift_down(m[t][t], d))
        right = [ring.mul(uinv, a) for a in m[t][t + 1:]]
        side[t] = [ring.mul(uinv, a) for a in side[t]]
        for i in range(t + 1, nr):
            a = m[i][t]
            if a:
                f = ring.shift_down(a, d)
                m[i][t + 1:] = submul(m[i][t + 1:], f, right)
                side[i] = submul(side[i], f, side[t])
        for j, a in enumerate(right, t + 1):
            if a:
                Vt[j] = submul(Vt[j], ring.shift_down(a, d), Vt[t])
    return side, [list(r) for r in zip(*Vt)], diag


def smith_solve(rows, b, ring):
    """(x, kernel, diag) from the Smith form: x = V y, y = D^{-1} U b with the
    free coordinates 0, and per column j of V the pair (valuation, w^valuation
    times column j) spanning the solutions of A x = 0, valuation K - d_j.
    Raises Unsolvable where U b leaves the image of D."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    K = ring.precision
    side, V, diag = smith_raw(ring, rows, [[x] for x in b])
    y = [0] * nc
    for i, (ci,) in enumerate(side):
        v = ring.val(ci)
        if i >= nc:
            if ci:
                raise Unsolvable(f"inconsistent row {i} (valuation {v})", v)
        elif diag[i] >= K:
            if ci:
                raise Unsolvable(f"zero row demands nonzero value (valuation {v})", v)
        elif v < diag[i]:
            raise Unsolvable(f"obstruction at pivot {i}: valuation {v} < {diag[i]}", v)
        else:
            y[i] = ring.shift_down(ci, diag[i])
    x = tuple(ring.dot(row, y) for row in V)
    kernel = []
    for j in range(nc):
        kv = max(K - (diag[j] if j < len(diag) else K), 0)
        if kv < K:
            kernel.append((kv, tuple(ring.shift_up(V[i][j], kv) for i in range(nc))))
    return x, tuple(kernel), tuple(diag)


def test_smith_reconstruction(rng):
    for mode, p, K, n in [("zp", 2, 5, 3), ("zp", 3, 4, 4), ("fpx", 2, 5, 3)]:
        ring = RingSpec(mode, p, K)
        for _ in range(40):
            a = random_matrix(ring, n, rng)
            # with the identity as side block, smith_raw returns U itself
            U, V, diag = smith_raw(ring, a.rows, UMatrix.identity(ring, n).rows)
            U, V = UMatrix.from_rows(ring, U), UMatrix.from_rows(ring, V)
            assert U.is_gl() and V.is_gl()
            assert diag == sorted(diag)
            want = [[ring.omega_pow(d) if i == j else 0 for j in range(n)]
                    for i, d in enumerate(diag)]
            assert (U @ a @ V).rows == tuple(map(tuple, want))


def test_solve_examples():
    ring = RingSpec("zp", 2, 3)
    a = UMatrix.from_int_rows(ring, [[2]])
    assert solve_linear(a.rows, [4], ring) == (2,)
    assert smith_solve(a.rows, [4], ring)[1][0][0] == 2  # solutions {2, 6} mod 8
    with pytest.raises(Unsolvable) as ei:
        solve_linear(a.rows, [1], ring)
    assert ei.value.obstruction_valuation == 0
    ident = UMatrix.identity(ring, 3)
    assert solve_linear(ident.rows, [1, 2, 3], ring) == (1, 2, 3)


def test_solve_random_verified(rng):
    ring = RingSpec("zp", 2, 5)
    for _ in range(40):
        n = rng.randrange(1, 5)
        a = random_matrix(ring, n, rng)
        x = [random_raw(ring, rng) for _ in range(n)]
        b = [ring.dot(row, x) for row in a.rows]
        got = solve_linear(a.rows, b, ring)
        check = [ring.dot(row, got) for row in a.rows]
        assert check == b
        # kernel vectors are honest solutions of Ax = 0
        for kv, gen in smith_solve(a.rows, b, ring)[1]:
            img = [ring.dot(row, gen) for row in a.rows]
            assert all(v == 0 for v in img)


@st.composite
def _solver_systems(draw):
    """(ring, rows, b): up to 12 x 12 over both modes, p in {2, 3, 5, 1021},
    K up to 16; entries of every valuation, zero rows, rows that combine
    earlier ones, and b consistent by construction or drawn freely."""
    ring = RingSpec(draw(st.sampled_from(["zp", "fpx"])), draw(st.sampled_from([2, 3, 5, 1021])),
                    draw(st.integers(1, 16)))
    nr, nc = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    K = ring.precision

    def entry():
        v = rng.choice([0, 0, 0, 1, 2, K, rng.randrange(K + 1)])
        return ring.shift_up(random_raw(ring, rng), v)

    rows = []
    for i in range(nr):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * nc)
        elif kind < 0.35 and i:
            c, r1, r2 = entry(), rows[rng.randrange(i)], rows[rng.randrange(i)]
            rows.append([ring.add(ring.mul(c, x), y) for x, y in zip(r1, r2)])
        else:
            rows.append([entry() for _ in range(nc)])
    if draw(st.booleans()):
        x = [random_raw(ring, rng) for _ in range(nc)]
        b = [ring.dot(r, x) for r in rows]
    else:
        b = [entry() for _ in range(nr)]
    return ring, rows, b


FPX34 = RingSpec("fpx", 3, 4)


@settings(max_examples=400, deadline=None)
@given(_solver_systems())
@example((RingSpec("zp", 2, 1), [[0, 0]], [1]))                  # zero row demands 1
@example((FPX34, [[FPX34.from_coeffs([0, 1])], [0], [FPX34.from_coeffs([0, 2])]],
          [0, 0, 1]))                                            # inconsistent row 2
def test_solve_linear_matches_smith_oracle(system):
    # the particular solution is the Smith form's V y bit for bit, and an
    # unsolvable system raises with the oracle's message and valuation
    ring, rows, b = system
    try:
        want = smith_solve(rows, b, ring)[0]
    except Unsolvable as exc:
        with pytest.raises(Unsolvable) as ei:
            solve_linear(rows, b, ring)
        assert str(ei.value) == str(exc)
        assert ei.value.obstruction_valuation == exc.obstruction_valuation
        return
    assert solve_linear(rows, b, ring) == want


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
    # returns one, and the kernel lattice of the Smith oracle counts all
    # solutions
    ring, rows, b = system
    nc = len(rows[0])
    sols = {x for x in itertools.product(ring.iter_all(), repeat=nc)
            if [ring.dot(r, x) for r in rows] == b}
    if not sols:
        with pytest.raises(Unsolvable):
            solve_linear(rows, b, ring)
        return
    assert solve_linear(rows, b, ring) in sols
    diag = smith_solve(rows, b, ring)[2]
    K = ring.precision
    assert math.prod(ring.p ** (diag[j] if j < len(diag) else K) for j in range(nc)) == len(sols)


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
                                        else random_raw(ring, rng) for _ in range(n))
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


# -- entrywise operations against the per-entry RingSpec results ----------------

ENTRY_KINDS = ["random", "extreme", "zero", "wrap"]
ENTRY_RINGS = st.sampled_from(["zp", "fpx"]), st.sampled_from([2, 3, 5, 7, 257, 1021])


def _entrywise(fn, *mats):
    """fn applied entry by entry to the rows of the matrices."""
    return tuple(tuple(map(fn, *rows)) for rows in zip(*mats))


def _entry_pair(ring, n, rng, kind):
    """Matrices (a, b): random or mostly extreme entries, both zero (valuation
    saturated), or b above a in every entry (in every coefficient in
    F_p[X]/(X^K)), so that each nonzero a - b wraps below 0."""
    if kind == "zero":
        return zero_matrix(ring, n), zero_matrix(ring, n)
    b = _kernel_matrix(ring, n, rng, kind == "extreme")
    if kind != "wrap":
        return _kernel_matrix(ring, n, rng, kind == "extreme"), b
    if ring.is_mixed:
        def below(y):
            return rng.randrange(y + 1)
    else:
        def below(y):
            return ring.from_coeffs([rng.randrange(c + 1) for c in ring.to_coeffs(y)])
    return UMatrix(ring, n, _entrywise(below, b.rows)), b


def _least_val(ring, rows):
    return min((ring.val(x) for r in rows for x in r), default=ring.precision)


@settings(max_examples=80, deadline=None)
@given(*ENTRY_RINGS, st.integers(1, 64), st.integers(1, 32), st.sampled_from(ENTRY_KINDS),
       st.integers(0, 2 ** 32))
@example("zp", 1021, 64, 32, "extreme", 0)
@example("fpx", 1021, 64, 32, "extreme", 1)
@example("fpx", 2, 64, 17, "wrap", 2)
@example("zp", 2, 8, 24, "zero", 3)
@example("fpx", 7, 1, 1, "wrap", 4)
def test_entrywise_ops_match_ring(mode, p, K, n, kind, seed):
    # each UMatrix entrywise operation, one RingSpec row operation per row,
    # equals the scalar operation entry by entry
    ring = RingSpec.of(mode, p, K)
    rng = random.Random(seed)
    a, b = _entry_pair(ring, n, rng, kind)
    assert (a + b).rows == _entrywise(ring.add, a.rows, b.rows)
    assert (a - b).rows == _entrywise(ring.sub, a.rows, b.rows)
    assert (b - a).rows == _entrywise(ring.sub, b.rows, a.rows)
    assert (-a).rows == _entrywise(ring.neg, a.rows)
    for c in (random_raw(ring, rng), b.rows[0][0], 0, 1):
        assert a.scale(c).rows == _entrywise(lambda x: ring.mul(c, x), a.rows)
        assert [ring.row_submul(ra, c, rb) for ra, rb in zip(a.rows, b.rows)] == \
            [[ring.sub(x, ring.mul(c, y)) for x, y in zip(ra, rb)]
             for ra, rb in zip(a.rows, b.rows)]
    m = rng.randint(1, K)
    red = a.reduce(m)
    assert red.ring == ring.with_precision(m)
    assert red.rows == _entrywise(lambda x: ring.low_part(x, m), a.rows)
    ident = UMatrix.identity(ring, n)
    assert a.min_valuation() == _least_val(ring, a.rows)
    assert a.dist_valuation(b) == _least_val(ring, _entrywise(ring.sub, a.rows, b.rows))
    assert a.dist(b) == NormValue.from_valuation(ring, a.dist_valuation(b))
    assert a.dist_valuation() == _least_val(ring, _entrywise(ring.sub, a.rows, ident.rows))
    assert ident.dist_valuation() == K and a.dist_valuation(a) == K


@settings(max_examples=80, deadline=None)
@given(*ENTRY_RINGS, st.integers(1, 64), st.integers(1, 32), st.sampled_from(ENTRY_KINDS),
       st.integers(0, 64), st.integers(0, 2 ** 32))
@example("zp", 1021, 64, 32, "extreme", 63, 0)
@example("fpx", 1021, 64, 32, "wrap", 1, 1)
@example("fpx", 3, 8, 5, "extreme", 8, 2)
@example("zp", 2, 1, 1, "zero", 1, 3)
def test_coords_match_ring(mode, p, K, n, kind, j, seed):
    # coords_j(a - b) mod w^m row by row equals shift_down then low_part entry
    # by entry, and raises as shift_down does on an entry that w^j does not
    # divide; the congruence coordinates and lift match the scalar operations
    # and a matrix outside the ball raises NotInBall
    ring = RingSpec.of(mode, p, K)
    rng = random.Random(seed)
    j, m = j % (K + 1), rng.randint(1, K + 1)
    a, b = _entry_pair(ring, n, rng, kind)
    e = _kernel_matrix(ring, n, rng, kind == "extreme")
    near = UMatrix(ring, n, _entrywise(lambda x, y: ring.sub(x, ring.shift_up(y, j)),
                                       a.rows, e.rows))
    for other in (b, near):
        for ra, rb in zip(a.rows, other.rows):
            try:
                want = [ring.low_part(ring.shift_down(ring.sub(x, y), j), m)
                        for x, y in zip(ra, rb)]
            except RingError:
                with pytest.raises(RingError, match="not divisible"):
                    ring.row_coords(ra, rb, j, m)
            else:
                assert ring.row_coords(ra, rb, j, m) == want
    if j:  # one entry of a - near moved to valuation j - 1
        r, c = rng.randrange(n), rng.randrange(n)
        bad = list(near.rows[r])
        bad[c] = ring.sub(bad[c], ring.omega_pow(j - 1))
        with pytest.raises(RingError, match="not divisible"):
            ring.row_coords(a.rows[r], bad, j, m)
    k = max(j, 1)
    ident = UMatrix.identity(ring, n)
    lifted = a.congruence_lift(k)
    assert lifted.rows == _entrywise(lambda x, d: ring.add(ring.shift_up(x, k), d),
                                     a.rows, ident.rows)
    assert a.congruence_lift(0).rows == (a + ident).rows
    assert lifted.congruence_coords(k).rows == _entrywise(
        lambda x, d: ring.shift_down(ring.sub(x, d), k), lifted.rows, ident.rows)
    if k < K:
        unit = UMatrix(ring, n, ((1,) + (0,) * (n - 1),) + ((0,) * n,) * (n - 1))
        outside = unit.congruence_lift(k - 1)  # dist(outside, I) = p^-(k-1)
        assert outside.dist_valuation() == k - 1
        with pytest.raises(NotInBall):
            outside.congruence_coords(k)


def test_monomial_commutant_swap_example():
    ring = RingSpec("zp", 2, 6)
    p_mat = UMatrix.from_int_rows(ring, [[0, 1], [1, 0]])
    d_mat = UMatrix.from_int_rows(ring, [[5, 0], [0, 9]])
    out = nearest_monomial_commutant(p_mat, d_mat)
    assert out.rows == ((5, 0), (0, 5))
    eps = matnorm((p_mat @ d_mat) - (d_mat @ p_mat))
    assert matnorm(d_mat - out) == eps  # |5 - 9| = 2^-2 both sides


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
        rows[i][perm[i]] = random_unit(ring, rng)
    return UMatrix(ring, n, tuple(tuple(r) for r in rows))


def test_monomial_commutant_random(rng):
    for mode, p, K in [("zp", 2, 6), ("zp", 5, 4), ("fpx", 2, 6)]:
        ring = RingSpec(mode, p, K)
        for _ in range(60):
            n = rng.randrange(2, 7)
            p_mat = _cycle_monomial(ring, n, rng)
            d_mat = random_matrix(ring, n, rng)
            out = nearest_monomial_commutant(p_mat, d_mat)
            assert ((p_mat @ out) - (out @ p_mat)).min_valuation() >= K
            eps = matnorm((p_mat @ d_mat) - (d_mat @ p_mat))
            assert matnorm(d_mat - out) <= eps


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
        d_mat = random_matrix(ring, n, rng)
        out = nearest_monomial_commutant(p_mat, d_mat)
        assert ((p_mat @ out) - (out @ p_mat)).min_valuation() >= 5
        eps = matnorm((p_mat @ d_mat) - (d_mat @ p_mat))
        assert matnorm(d_mat - out) <= eps


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
