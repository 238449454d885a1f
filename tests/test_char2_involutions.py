import collections
import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ultrastab import char2_involutions
from ultrastab.local_ring import RingSpec
from ultrastab.char2_involutions import (
    PreconditionViolated,
    _digit_inverse,
    _gf2_matrix,
    _gf2_solver,
    bg_blockform,
    involution_repair,
)
from ultrastab.proptests import random_gl
from ultrastab.ultranorm_linalg import UMatrix

from conftest import matrix_power, norm_power, shifted_random



def frobenius_power_witness(a, k):
    """||(I + A)^{p^k} - I||, asserted equal to ||A^{p^k}||.

    In characteristic p the two sides agree identically; the pair of
    independent evaluations is the sharpness witness for the quadratic
    estimate (the repair distance cannot beat the p^k-th root).
    """
    assert not a.ring.is_mixed, "witness requires equal characteristic"
    ident = UMatrix.identity(a.ring, a.n)
    q = a.ring.p ** k
    lhs = (matrix_power(ident + a, q) - ident).matnorm()
    assert lhs == matrix_power(a, q).matnorm(), "Frobenius power identity failed"
    assert lhs <= norm_power(a.matnorm(), q), "Frobenius witness exceeded its norm bound"
    return lhs


def gf2_solve(rows, rhs):
    """One solution of rows * x = rhs over GF(2), or None (dense 0/1 lists).

    The reference for the once-eliminated solver: Gauss-Jordan on the
    augmented [rows | rhs], pivot the first row at or below the next pivot
    row, free coordinates 0.
    """
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    nr = len(m)
    nc = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nr):
            if i != r and m[i][c]:
                m[i] = [(a ^ b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if m[i][nc]:
            return None
    x = [0] * nc
    for i, c in enumerate(pivots):
        x[c] = m[i][nc]
    return x


def _check_solver(rows, nc, rhs_list):
    """The solver eliminated once agrees with the oracle on every b."""
    nr = len(rows)
    dense = [[row >> c & 1 for c in range(nc)] for row in rows]
    solve = _gf2_solver(rows, nc)
    solved = 0
    for b in rhs_list:
        want = gf2_solve(dense, [b >> i & 1 for i in range(nr)])
        got = solve(b)
        if want is None:
            assert got is None
        else:
            assert got == sum(bit << c for c, bit in enumerate(want))
            solved += 1
    return solved


def test_gf2_solver_examples():
    # x0 = 1 and x0 = 0 at once: inconsistent unless both sides agree
    assert _check_solver([0b1, 0b1], 1, [0b00, 0b11, 0b01, 0b10]) == 2
    # a zero row, a duplicate and a sum: rank 2 of 5 rows in 3 unknowns
    rows = [0b011, 0b000, 0b110, 0b011, 0b101]
    assert _check_solver(rows, 3, range(1 << 5)) == 4
    solve = _gf2_solver(rows, 3)
    assert solve(0b00000) == 0 and solve(0b00010) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.data())
def test_gf2_solver_matches_oracle(nr, nc, data):
    rows = []
    for _ in range(nr):
        kind = data.draw(st.sampled_from(["random", "zero", "copy", "sum"]))
        if kind == "zero":
            rows.append(0)
        elif kind == "copy" and rows:
            rows.append(data.draw(st.sampled_from(rows)))
        elif kind == "sum" and len(rows) > 1:
            rows.append(data.draw(st.sampled_from(rows)) ^ data.draw(st.sampled_from(rows)))
        else:
            rows.append(data.draw(st.integers(0, (1 << nc) - 1)))
    rhs_list = []
    for consistent in data.draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        if consistent:   # b = rows . x0
            x0 = data.draw(st.integers(0, (1 << nc) - 1))
            rhs_list.append(sum(((row & x0).bit_count() & 1) << i
                                for i, row in enumerate(rows)))
        else:
            rhs_list.append(data.draw(st.integers(0, (1 << nr) - 1)))
    _check_solver(rows, nc, rhs_list)


def _ring(K=10):
    return RingSpec("fpx", 2, K)


def _swap_form(ring, n, l):
    rows = [[0] * n for _ in range(n)]
    for i in range(l):
        rows[i][l + i] = 1
        rows[l + i][i] = 1
    for i in range(2 * l, n):
        rows[i][i] = 1
    return UMatrix.from_int_rows(ring, rows)


def _random_involution(ring, n, rng):
    l = rng.randrange(0, n // 2 + 1)
    u = random_gl(ring, n, rng)
    return u @ _swap_form(ring, n, l) @ u.inv()


def test_bg_blockform_identity():
    ring = _ring(6)
    form = bg_blockform(UMatrix.identity(ring, 3), 6)
    assert form.swap_count == 0
    assert form.B.rows == UMatrix.identity(ring, 3).rows
    assert form.check(UMatrix.identity(ring, 3))


def test_bg_blockform_exact_swap():
    ring = _ring(6)
    a = UMatrix.from_int_rows(ring, [[0, 1], [1, 0]])
    form = bg_blockform(a, 6)
    assert form.swap_count == 1
    assert form.B.n == 0
    assert form.check(a)


def test_bg_blockform_random_involutions(rng):
    ring = _ring(8)
    for _ in range(25):
        n = rng.randrange(1, 5)
        a = _random_involution(ring, n, rng)
        k = rng.randrange(1, 9)
        form = bg_blockform(a, k)
        assert form.check(a)


def test_bg_blockform_exhaustive_small():
    # every involutory 2x2 matrix over F_2[X]/(X^2) admits a verified form
    ring = RingSpec("fpx", 2, 2)
    ident = UMatrix.identity(ring, 2)
    count = 0
    for e in itertools.product(list(ring.iter_all()), repeat=4):
        m = UMatrix(ring, 2, ((e[0], e[1]), (e[2], e[3])))
        if (m @ m).rows != ident.rows:
            continue
        form = bg_blockform(m, 2)
        assert form.check(m)
        count += 1
    assert count == 28  # 16 X-multiples of square-zero plus 3 * 4 unit lifts


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 8, 10, 16]), st.integers(1, 12), st.data())
def test_bg_blockform_carries_the_inverse(K, n, data):
    # every block form the repair builds, at every recursion level, carries
    # Q = P^-1 exactly; inv is the oracle here and nowhere in the module
    ring = _ring(K)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    l = data.draw(st.integers(0, n // 2))
    k = data.draw(st.integers(1, K))
    u = random_gl(ring, n, rng)
    a = u @ _swap_form(ring, n, l) @ u.inv() + shifted_random(ring, n, rng, k)
    forms = []
    real = char2_involutions.bg_blockform

    def recorded(b, level):
        forms.append(real(b, level))
        return forms[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(char2_involutions, "bg_blockform", recorded)
        forms.append(bg_blockform(a, k))
        involution_repair(a)
    for form in forms:
        ident = UMatrix.identity(ring, form.P.n)
        assert (form.P @ form.Q).rows == ident.rows
        assert form.Q.rows == form.P.inv().rows


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 8, 10, 16]), st.integers(1, 12), st.data())
def test_digit_inverse_matches_oracle(K, n, data):
    ring = _ring(K)
    ebits = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    factor = _gf2_matrix(ring, ebits, n)
    for j in range(1, K):
        got = _digit_inverse(ring, ebits, j)
        assert got.rows == factor.congruence_lift(j).inv().rows
        if 2 * j >= K:   # the series stops after I + X^j E
            assert got.rows == factor.congruence_lift(j).rows


def _benchmark_shaped_involution(ring, rng):
    """A conjugate of swap_5 (+) I_2 over F_2[X]/(X^10) plus noise at level 4."""
    u = random_gl(ring, 12, rng)
    return u @ _swap_form(ring, 12, 5) @ u.inv() + shifted_random(ring, 12, rng, 4)


def test_check_rejects_a_tampered_inverse(rng):
    # check re-measures P Q = I at precision K: a Q that is off only at
    # X^(K-1) still passes the level-k reading of P A Q, and must not pass
    ring = _ring(10)
    a = _benchmark_shaped_involution(ring, rng)
    form = bg_blockform(a, 4)
    assert form.check(a)
    assert (form.P @ form.P).rows != UMatrix.identity(ring, 12).rows
    assert not dataclasses.replace(form, Q=form.P).check(a)
    for r, c in [(0, 0), (3, 11), (11, 5)]:
        bump = [[0] * 12 for _ in range(12)]
        bump[r][c] = 1
        q_bad = form.Q + UMatrix.from_int_rows(ring, bump).scale(ring.shift_up(ring.one, 9))
        assert (q_bad - form.Q).min_valuation() == 9
        assert not dataclasses.replace(form, Q=q_bad).check(a)


def test_repair_inverts_no_matrix(rng, monkeypatch):
    ring = _ring(10)
    inputs = [_benchmark_shaped_involution(ring, rng) for _ in range(3)]
    calls = []
    real = UMatrix.inv

    def counted(self):
        calls.append(self.n)
        return real(self)

    monkeypatch.setattr(UMatrix, "inv", counted)
    for a in inputs:
        out = involution_repair(a)
        assert (a - out).min_valuation() >= 2
    assert calls == []


def test_digit_system_is_eliminated_once_per_shape(rng, monkeypatch):
    # the digit system depends on (n, l) alone, so three repairs whose top
    # block forms share (n, l) = (12, 5) eliminate each system they meet once
    calls = collections.Counter()
    real = char2_involutions._gf2_solver
    monkeypatch.setattr(char2_involutions, "_gf2_solver",
                        lambda rows, ncols: calls.update([(ncols, len(rows))]) or real(rows, ncols))
    char2_involutions._digit_system.cache_clear()
    ring = _ring(10)
    for a in [_benchmark_shaped_involution(ring, rng) for _ in range(3)]:
        assert (a - involution_repair(a)).min_valuation() >= 2
    assert calls[144, 144 - 4] == 1 and set(calls.values()) == {1}


def test_repair_scalar_example():
    ring = RingSpec("fpx", 2, 6)
    a = UMatrix(ring, 1, ((ring.from_coeffs([1, 0, 1]),),))
    out = involution_repair(a)
    assert out.rows == ((1,),)
    assert (a - out).min_valuation() == 2  # sqrt of the defect 2^-4


def test_repair_exact_input_unchanged(rng):
    ring = _ring(8)
    a = _random_involution(ring, 3, rng)
    out = involution_repair(a)
    assert out.rows == a.rows


def test_repair_random_quadratic_bound(rng):
    ring = _ring(10)
    ident4 = {n: UMatrix.identity(ring, n) for n in range(1, 5)}
    done = 0
    while done < 40:
        n = rng.randrange(1, 5)
        s = _random_involution(ring, n, rng)
        k = rng.randrange(1, 9)
        a = s + shifted_random(ring, n, rng, k)
        if not a.is_gl():
            continue
        dval = ((a @ a) - ident4[n]).min_valuation()
        if dval < 1 or dval >= 10:
            continue
        out = involution_repair(a)
        assert ((out @ out) - ident4[n]).min_valuation() >= 10
        dist = (a - out).min_valuation()
        assert 2 * dist >= dval
        done += 1


def test_repair_exhaustive_n2_K2():
    ring = RingSpec("fpx", 2, 2)
    ident = UMatrix.identity(ring, 2)
    elems = list(ring.iter_all())
    involutions = [UMatrix(ring, 2, ((a, b), (c, d)))
                   for a, b, c, d in itertools.product(elems, repeat=4)
                   if (UMatrix(ring, 2, ((a, b), (c, d))) @
                       UMatrix(ring, 2, ((a, b), (c, d)))).rows == ident.rows]
    checked = 0
    for e in itertools.product(elems, repeat=4):
        m = UMatrix(ring, 2, ((e[0], e[1]), (e[2], e[3])))
        dval = ((m @ m) - ident).min_valuation()
        if dval < 1 or not m.is_gl():
            continue
        out = involution_repair(m)
        d_rep = (m - out).min_valuation()
        d_best = max((m - w).min_valuation() for w in involutions)
        assert 2 * d_rep >= dval          # quadratic bound, literal form
        assert d_best >= d_rep            # repair is no better than optimum
        assert 2 * d_best >= dval         # brute force confirms attainability
        checked += 1
    assert checked == 64


def test_repair_builds_no_block_form_at_identity_residue(rng, monkeypatch):
    # A == I mod X has no swap pair: the repair rescales by X^-j without a
    # block form and builds one only on the rescaled matrix, which has swaps
    real = char2_involutions.bg_blockform
    residues = []

    def counted(a, k):
        residues.append((a - UMatrix.identity(a.ring, a.n)).min_valuation())
        return real(a, k)

    monkeypatch.setattr(char2_involutions, "bg_blockform", counted)
    ring = _ring(12)
    ident = UMatrix.identity(ring, 6)
    for _ in range(10):
        u = random_gl(ring, 6, rng)
        s = u @ _swap_form(ring, 6, 2) @ u.inv()
        a = (s - ident).congruence_lift(2) + shifted_random(ring, 6, rng, 7)
        dval = ((a @ a) - ident).min_valuation()
        assert (a - ident).min_valuation() == 2 and 9 <= dval < 12
        residues.clear()
        out = involution_repair(a)
        assert 2 * (a - out).min_valuation() >= dval
        assert residues and set(residues) == {0}


def test_repair_preconditions():
    ring = RingSpec("zp", 2, 6)
    with pytest.raises(PreconditionViolated):
        involution_repair(UMatrix.identity(ring, 2))
    ring2 = _ring(6)
    bad = UMatrix.from_int_rows(ring2, [[1, 1], [1, 1]])  # not invertible
    with pytest.raises(PreconditionViolated):
        involution_repair(bad)


def test_frobenius_witness_examples(rng):
    ring = _ring(10)
    a = UMatrix(ring, 2, ((ring.from_coeffs([0, 1]), 0), (0, 0)))
    w = frobenius_power_witness(a, 1)
    assert w.valuation == 2  # ||A||^2 with ||A|| = 2^-1
    z = frobenius_power_witness(UMatrix.zero(ring, 2), 3)
    assert z.saturated
    # random nilpotent: strictly upper triangular
    for _ in range(20):
        rows = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                rows[i][j] = ring.random_raw(rng)
        n_mat = UMatrix(ring, 3, tuple(tuple(r) for r in rows))
        frobenius_power_witness(n_mat, 2)  # raises if the identity fails
