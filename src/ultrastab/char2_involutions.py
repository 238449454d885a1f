"""Involution repair in characteristic 2 with the quadratic estimate.

A matrix A over F_2[X]/(X^K) with ||A^2 - I|| small is moved onto an
exact involution A' with ||A - A'||^2 <= ||A^2 - I||.  The route is a
constructive block reduction: over the residue field A + I is square
zero, which fixes a swap-block shape; the congruence level of the shape
is then raised one X-digit at a time by solving a residue-field linear
system for a corrector.  The repair recurses on the small block, with a
rescaling branch for matrices congruent to the identity.

Cost per recursion level on an n x n input with l swap pairs and small
block size s = n - 2l: one GF(2) elimination of the (n^2 - s^2) x n^2
digit system, whose matrix depends only on n and l, so it is kept for the
next form of the same (n, l); then per digit four
matmuls and no inverse (the conjugator P and Q = P^-1 are carried
together, Q's digit factor being a GF(2) series built by xors),
n^2 - s^2 residual reads and one parity per system row for the
right-hand side.  A level with l = 0 (every small block the repair
recurses on) is told by A == I mod X and builds no block form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .local_ring import RingError, RingSpec
from .ultranorm_linalg import UMatrix


class PreconditionViolated(RingError):
    pass


class ReductionFailed(RuntimeError):
    """The digit-lifting system had no solution; indicates a bug, not bad input."""


def _require_char2(ring: RingSpec) -> None:
    if ring.is_mixed or ring.p != 2:
        raise PreconditionViolated("operation requires F_2[X]/(X^K)")


# ---------------------------------------------------------------------------
# GF(2) elimination on int-packed rows (bit c of a row is its column c)
# ---------------------------------------------------------------------------


def _gf2_rref(rows: Sequence[int], ncols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form over GF(2) of the first ncols columns.

    Column by column, the pivot is the first row at or below the next pivot
    row; it is swapped up and cleared from every other row.  Returns the
    rows (row i is the pivot row of pivots[i]) and the pivot columns.
    """
    m = list(rows)
    pivots: List[int] = []
    for c in range(ncols):
        bit = 1 << c
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i] & bit), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        for i, row in enumerate(m):
            if i != r and row & bit:
                m[i] = row ^ prow
        pivots.append(c)
    return m, pivots


def _gf2_solver(rows: Sequence[int], ncols: int) -> Callable[[int], Optional[int]]:
    """Eliminate rows . x = b over GF(2) once, for any number of b.

    Each row carries the identity on its input row index above column
    ncols, so every echelon row records which input rows it sums; the
    pivots read only the first ncols columns.  The returned function maps
    b (bit i is the right-hand side of row i) to the solution with free
    coordinates 0 (bit c is x_c), or None when the system is inconsistent.
    """
    m, pivots = _gf2_rref([row | 1 << (ncols + i) for i, row in enumerate(rows)], ncols)
    combos = [row >> ncols for row in m]
    rank = len(pivots)

    def solve(b: int) -> Optional[int]:
        if any((combo & b).bit_count() & 1 for combo in combos[rank:]):
            return None
        return sum(1 << c for c, combo in zip(pivots, combos) if (combo & b).bit_count() & 1)

    return solve


# ---------------------------------------------------------------------------
# Brawley--Gamble block form
# ---------------------------------------------------------------------------


def _swap_plus(ring: RingSpec, n: int, l: int, block: Sequence[Sequence[int]]) -> UMatrix:
    """swap_l (+) block: l swapped coordinate pairs, then the s x s block."""
    rows = [[0] * n for _ in range(n)]
    for i in range(l):
        rows[i][l + i] = rows[l + i][i] = ring.one
    for i, brow in enumerate(block):
        rows[2 * l + i][2 * l:] = brow
    return UMatrix(ring, n, tuple(tuple(r) for r in rows))


def _gf2_matrix(ring: RingSpec, rows: Sequence[int], n: int) -> UMatrix:
    """The 0/1 matrix whose row r has bit c of rows[r] in column c."""
    return UMatrix.from_int_rows(ring, [[row >> c & 1 for c in range(n)] for row in rows])


def _digit_inverse(ring: RingSpec, ebits: Sequence[int], j: int) -> UMatrix:
    """(I + X^j E)^-1 for a 0/1 matrix E (bit c of ebits[r] is E[r][c]), 1 <= j < K.

    In characteristic 2 the inverse is the series sum of X^{ij} E^i over
    the i with ij < K (I + X^j E itself when 2j >= K).  The powers E^i are
    formed on the packed GF(2) rows by xors; term i fills the X^{ij} slot
    of each entry, so the series is assembled without a ring product.
    """
    n = len(ebits)
    entries = [[0] * n for _ in range(n)]
    power = [1 << r for r in range(n)]  # E^0
    for i in range((ring.precision - 1) // j + 1):
        if i:   # E^i = E^(i-1) E
            power = [_xor_rows(ebits, row) for row in power]
        unit = ring.shift_up(ring.one, i * j)
        for r, row in enumerate(power):
            for c in range(n):
                if row >> c & 1:
                    entries[r][c] |= unit
    return UMatrix(ring, n, tuple(tuple(r) for r in entries))


def _xor_rows(rows: Sequence[int], select: int) -> int:
    """Sum over GF(2) of the rows whose index is a bit of select."""
    out = 0
    for c, row in enumerate(rows):
        if select >> c & 1:
            out ^= row
    return out


@dataclass(frozen=True)
class BGForm:
    """P A Q == swap_l (+) B mod X^level, with Q = P^-1 and B == I mod X.

    check confirms P Q == I exactly at precision K before it reads P A Q.
    """

    P: UMatrix
    Q: UMatrix
    swap_count: int
    B: UMatrix
    level: int

    def target_rows(self, ring: RingSpec, n: int) -> Tuple[Tuple[int, ...], ...]:
        return _swap_plus(ring, n, self.swap_count, self.B.rows).rows

    def check(self, a: UMatrix) -> bool:
        n = a.n
        if (self.P @ self.Q).rows != UMatrix.identity(a.ring, n).rows:
            return False
        conj = self.P @ a @ self.Q
        target = UMatrix(a.ring, n, self.target_rows(a.ring, n))
        level_ok = (conj - target).min_valuation() >= self.level
        small = self.B
        ident = UMatrix.identity(small.ring, small.n)
        return level_ok and (small.n == 0 or (small - ident).min_valuation() >= 1)


def _initial_basis_change(a: UMatrix) -> Tuple[UMatrix, UMatrix, int]:
    """Conjugator P over F_2, Q = P^-1 and l with P A Q == swap_l (+) I mod X.

    N = A + I is square zero over F_2.  One echelon form of N gives its
    pivot columns c (the e_c span a complement of ker N, and w_c = N e_c
    span im N) and a basis of ker N.  The pairs (e_c, A e_c) = (e_c,
    e_c + w_c), then a completion of the w_c to a basis of ker N, are the
    columns of Q; P = Q^-1 is read from one echelon form of [Q | I].
    """
    n = a.n
    # bit j of row i is N[i][j]; bit i of column j likewise
    nrows = [sum(x << j for j, x in enumerate(row)) ^ 1 << i
             for i, row in enumerate(a.residue_rows())]
    m, pivots = _gf2_rref(nrows, n)
    ws = [sum((row >> c & 1) << i for i, row in enumerate(nrows)) for c in pivots]
    kernel = [1 << fc | sum(1 << c for c, row in zip(pivots, m) if row >> fc & 1)
              for fc in range(n) if fc not in pivots]

    # greedily extend the w_c to a basis of the kernel, leading bit = lowest
    basis: List[Tuple[int, int]] = []

    def reduce_against(v: int) -> int:
        for b, lead in basis:
            if v >> lead & 1:
                v ^= b
        return v

    for w in ws:
        red = reduce_against(w)
        basis.append((red, (red & -red).bit_length() - 1))
    us = []
    for v in kernel:
        red = reduce_against(v)
        if red:
            basis.append((red, (red & -red).bit_length() - 1))
            us.append(v)
    cols = [1 << c for c in pivots] + [1 << c ^ w for c, w in zip(pivots, ws)] + us
    if len(cols) != n:
        raise ReductionFailed("residue basis construction is incomplete")
    qrows = [sum((col >> i & 1) << c for c, col in enumerate(cols)) for i in range(n)]
    inv_rows, inv_pivots = _gf2_rref([row | 1 << (n + i) for i, row in enumerate(qrows)], n)
    if len(inv_pivots) != n:
        raise ReductionFailed("residue basis is not invertible")
    ring = a.ring
    return (_gf2_matrix(ring, [row >> n for row in inv_rows], n),
            _gf2_matrix(ring, qrows, n), len(pivots))


@functools.lru_cache(maxsize=32)
def _digit_system(n: int, l: int):
    """The entries (r, c) outside the small block and the solver of the digit
    system [E, D] = R there, D = swap_l (+) I, eliminated once per (n, l)."""
    outside = tuple((r, c) for r in range(n) for c in range(n) if r < 2 * l or c < 2 * l)
    # (E D - D E)[r][c] = E[r][sigma(c)] + E[sigma(r)][c], sigma the swap of D
    sigma = list(range(l, 2 * l)) + list(range(l)) + list(range(2 * l, n))
    return outside, _gf2_solver([1 << (r * n + sigma[c]) ^ 1 << (sigma[r] * n + c)
                                 for r, c in outside], n * n)


def bg_blockform(a: UMatrix, k: int) -> BGForm:
    """Verified block form of an approximate involution at level k.

    Requires ||A^2 - I|| <= 2^{-k} over F_2[X]/(X^K) with k >= 1.  The
    conjugator is built over the residue field and then improved one digit
    at a time; each digit asks for a GF(2) corrector E with
    R + [E, D] supported only on the small block, D = swap_l (+) I.  That
    system's matrix depends only on n and l, so it is eliminated once per
    (n, l) ((n^2 - s^2) x n^2 with s = n - 2l).  P and Q = P^-1 are carried
    together: each of the k - 1 digits costs four matmuls and no inverse
    (P A Q, P <- (I + X^j E) P, Q <- Q (I + X^j E)^-1 with the last factor
    a GF(2) series of at most ceil(K / j) terms), n^2 - s^2 residual reads
    and one parity per system row.  With l = 0 the system is empty and no
    digit is lifted.
    """
    _require_char2(a.ring)
    ring = a.ring
    n = a.n
    K = ring.precision
    if k < 1 or k > K:
        raise PreconditionViolated(f"level must satisfy 1 <= k <= K, got {k}")
    if ((a @ a) - UMatrix.identity(ring, n)).min_valuation() < k:
        raise PreconditionViolated("matrix is not an involution at the requested level")

    p_mat, q_mat, l = _initial_basis_change(a)
    # with no swap pair every entry lies in the B block: the digit system is
    # empty, every corrector E is 0 and the residue-field P is already final
    last = k if l else 1
    if last > 1:
        outside, solve = _digit_system(n, l)
    for j in range(1, last + 1):
        conj = p_mat @ a @ q_mat
        if j == last:
            break
        # residual digit: R = ((P A Q - D_j) / X^j) mod X, where D_j is the
        # current target (swap block plus whatever sits in the B block).
        diff = conj - _swap_plus(ring, n, l, [row[2 * l:] for row in conj.rows[2 * l:]])
        if diff.min_valuation() < j:
            raise ReductionFailed("block congruence degraded during lifting")
        x = solve(sum(ring.digit(diff.rows[r][c], j) << i for i, (r, c) in enumerate(outside)))
        if x is None:
            raise ReductionFailed(f"digit-lifting system unsolvable at digit {j}")
        # P <- (I + X^j E) P and Q <- Q (I + X^j E)^-1
        ebits = [x >> (r * n) & ((1 << n) - 1) for r in range(n)]
        p_mat = _gf2_matrix(ring, ebits, n).congruence_lift(j) @ p_mat
        q_mat = q_mat @ _digit_inverse(ring, ebits, j)

    b_mat = UMatrix(ring, n - 2 * l, tuple(row[2 * l:] for row in conj.rows[2 * l:]))
    form = BGForm(P=p_mat, Q=q_mat, swap_count=l, B=b_mat, level=k)
    if not form.check(a):
        raise ReductionFailed("block form failed its own verification")
    return form


# ---------------------------------------------------------------------------
# The repair
# ---------------------------------------------------------------------------


def involution_repair(a: UMatrix) -> UMatrix:
    """Nearest-involution repair with the literal quadratic estimate.

    Returns A' with A'^2 = I exactly at precision K and
    ||A - A'||^2 <= ||A^2 - I||.
    """
    _require_char2(a.ring)
    ring = a.ring
    n = a.n
    K = ring.precision
    ident = UMatrix.identity(ring, n)
    dval = ((a @ a) - ident).min_valuation()
    if dval < 1:
        raise PreconditionViolated("||A^2 - I|| must be < 1")
    out = _repair_rec(a, dval)
    if ((out @ out) - ident).min_valuation() < K:
        raise ReductionFailed("repair did not produce an exact involution")
    got = (a - out).min_valuation()
    if 2 * got < dval:
        raise ReductionFailed("repair exceeded the quadratic bound")
    return out


def _repair_rec(a: UMatrix, dval: int) -> UMatrix:
    ring = a.ring
    n = a.n
    K = ring.precision
    ident = UMatrix.identity(ring, n)
    if dval >= K:
        return a
    if n == 1:
        # |x^2 - 1| = |x - 1|^2 in characteristic 2, so 1 is close enough.
        return ident
    # A == I mod X exactly when the block form has no swap pair (l = 0)
    j = (a - ident).min_valuation()
    if j == 0:
        form = bg_blockform(a, dval)
        b_rep = form.B
        if b_rep.n:
            bdval = ((b_rep @ b_rep) - UMatrix.identity(ring, b_rep.n)).min_valuation()
            if bdval < dval:
                raise ReductionFailed("small block lost defect depth")
            b_rep = _repair_rec(b_rep, bdval)
        return form.Q @ _swap_plus(ring, n, form.swap_count, b_rep.rows) @ form.P
    # l == 0: A = I + X^j M with j >= 1 maximal (j < K, as A^2 != I); either
    # I is near enough or the defect rescales by X^{-j} and the recursion
    # drops to the swap branch.
    half = dval // 2
    if j >= half + (dval % 2):
        return ident
    inner = ident + a.congruence_coords(j)
    inner_dval = ((inner @ inner) - ident).min_valuation()
    inner_fixed = _repair_rec(inner, inner_dval)
    return (inner_fixed - ident).congruence_lift(j)
