"""Involution repair in characteristic 2 with the quadratic estimate.

A matrix A over F_2[X]/(X^K) with ||A^2 - I|| small is moved onto an
exact involution A' with ||A - A'||^2 <= ||A^2 - I||.  The route is a
constructive block reduction: over the residue field A + I is square
zero, which fixes a swap-block shape; the congruence level of the shape
is then raised one X-digit at a time by solving a residue-field linear
system for a corrector.  The repair recurses on the small block, with a
rescaling branch for matrices congruent to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

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
# GF(2) linear algebra helpers (dense lists of 0/1 ints)
# ---------------------------------------------------------------------------


def _gf2_solve(rows: List[List[int]], rhs: List[int]) -> Optional[List[int]]:
    """One solution of rows * x = rhs over GF(2), or None."""
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


def _gf2_inv(a):
    n = len(a)
    m = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            raise ReductionFailed("residue matrix not invertible")
        m[c], m[piv] = m[piv], m[c]
        for i in range(n):
            if i != c and m[i][c]:
                m[i] = [(x ^ y) for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


# ---------------------------------------------------------------------------
# Brawley--Gamble block form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BGForm:
    """P A P^{-1} == swap_l (+) B mod X^level, with B == I mod X."""

    P: UMatrix
    swap_count: int
    B: UMatrix
    level: int

    def target_rows(self, ring: RingSpec, n: int) -> Tuple[Tuple[int, ...], ...]:
        l = self.swap_count
        rows = [[0] * n for _ in range(n)]
        for i in range(l):
            rows[i][l + i] = ring.one
            rows[l + i][i] = ring.one
        for i in range(n - 2 * l):
            for j in range(n - 2 * l):
                rows[2 * l + i][2 * l + j] = self.B.rows[i][j]
        return tuple(tuple(r) for r in rows)

    def check(self, a: UMatrix) -> bool:
        n = a.n
        conj = self.P @ a @ self.P.inv()
        target = UMatrix(a.ring, n, self.target_rows(a.ring, n))
        level_ok = (conj - target).min_valuation() >= self.level
        small = self.B
        ident = UMatrix.identity(small.ring, small.n)
        return level_ok and (small.n == 0 or (small - ident).min_valuation() >= 1)


def _residue_bits(a: UMatrix) -> List[List[int]]:
    return [[x & 1 for x in row] for row in a.residue_rows()]


def _initial_basis_change(a: UMatrix) -> Tuple[List[List[int]], int]:
    """GF(2) basis in which the residue of A is swap_l (+) I.

    N = A + I is square zero over F_2; pairs (v, Av) for a basis v of a
    complement of ker N, then a completion of im N inside ker N, give the
    swap-plus-identity shape.
    """
    n = a.n
    abar = _residue_bits(a)
    nbar = [[abar[i][j] ^ (1 if i == j else 0) for j in range(n)] for i in range(n)]
    # column echelon to find pivot columns (a basis of the image) .. work on copy
    m = [row[:] for row in nbar]
    pivot_cols: List[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(n):
            if i != r and m[i][c]:
                m[i] = [(x ^ y) for x, y in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
    l = r
    vs = [[1 if i == c else 0 for i in range(n)] for c in pivot_cols]
    ws = [[sum(nbar[i][j] & v[j] for j in range(n)) & 1 for i in range(n)] for v in vs]
    # kernel of N: complete ws to a basis of ker using echelon of N
    kernel: List[List[int]] = []
    m = [row[:] for row in nbar]
    pivots = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(n):
            if i != r and m[i][c]:
                m[i] = [(x ^ y) for x, y in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
    free_cols = [c for c in range(n) if c not in pivots]
    for fc in free_cols:
        v = [0] * n
        v[fc] = 1
        for c, rr in pivots.items():
            if m[rr][fc]:
                v[c] = 1
        kernel.append(v)
    # greedily extend ws to a basis of the kernel
    def reduce_against(v, basis):
        v = v[:]
        for b, lead in basis:
            if v[lead]:
                v = [(x ^ y) for x, y in zip(v, b)]
        return v

    basis = []
    for w in ws:
        red = reduce_against(w, basis)
        lead = next(i for i, x in enumerate(red) if x)
        basis.append((red, lead))
    us = []
    for v in kernel:
        red = reduce_against(v, basis)
        lead = next((i for i, x in enumerate(red) if x), None)
        if lead is not None:
            basis.append((red, lead))
            us.append(v)
    # swap pairs are (v, A v) = (v, v + w): A maps each onto the other
    bs = [[(x ^ y) for x, y in zip(v, w)] for v, w in zip(vs, ws)]
    cols = vs + bs + us
    if len(cols) != n:
        raise ReductionFailed("residue basis construction is incomplete")
    # Q maps e_i to the i-th basis vector (as columns); we need P = Q^{-1}
    q = [[cols[j][i] for j in range(n)] for i in range(n)]
    return _gf2_inv(q), l


def bg_blockform(a: UMatrix, k: int) -> BGForm:
    """Verified block form of an approximate involution at level k.

    Requires ||A^2 - I|| <= 2^{-k} over F_2[X]/(X^K) with k >= 1.  The
    conjugator is built over the residue field and then improved one digit
    at a time; each digit asks for a GF(2) corrector E with
    R + [E, D] supported only on the small block.
    """
    _require_char2(a.ring)
    ring = a.ring
    n = a.n
    K = ring.precision
    if k < 1 or k > K:
        raise PreconditionViolated(f"level must satisfy 1 <= k <= K, got {k}")
    ident = UMatrix.identity(ring, n)
    if ((a @ a) - ident).min_valuation() < k:
        raise PreconditionViolated("matrix is not an involution at the requested level")

    pbits, l = _initial_basis_change(a)
    p_mat = UMatrix.from_int_rows(ring, pbits)
    small = n - 2 * l

    def dbar_rows() -> List[List[int]]:
        rows = [[0] * n for _ in range(n)]
        for i in range(l):
            rows[i][l + i] = 1
            rows[l + i][i] = 1
        for i in range(small):
            rows[2 * l + i][2 * l + i] = 1
        return rows

    dbar = dbar_rows()
    for j in range(1, k):
        conj = p_mat @ a @ p_mat.inv()
        # residual digit: R = ((P A P^{-1} - D_j) / X^j) mod X, where D_j is
        # the current target (swap block plus whatever sits in the B block).
        diff = [[conj.rows[r][c] for c in range(n)] for r in range(n)]
        for i in range(l):
            diff[i][l + i] = ring.sub(diff[i][l + i], ring.one)
            diff[l + i][i] = ring.sub(diff[l + i][i], ring.one)
        rbits = [[0] * n for _ in range(n)]
        ok = True
        for r in range(n):
            for c in range(n):
                x = diff[r][c]
                inside_b = r >= 2 * l and c >= 2 * l
                if inside_b:
                    continue
                if x and ring.val(x) < j:
                    ok = False
                rbits[r][c] = ring.digit(x, j)
        if not ok:
            raise ReductionFailed("block congruence degraded during lifting")
        # solve R + E D - D E == 0 outside the B block, unknown E in M_n(F_2)
        rows = []
        rhs = []
        for r in range(n):
            for c in range(n):
                if r >= 2 * l and c >= 2 * l:
                    continue
                row = [0] * (n * n)
                for t in range(n):
                    if dbar[t][c]:
                        row[r * n + t] ^= 1
                    if dbar[r][t]:
                        row[t * n + c] ^= 1
                rows.append(row)
                rhs.append(rbits[r][c])
        sol = _gf2_solve(rows, rhs) if rows else [0] * (n * n)
        if sol is None:
            raise ReductionFailed(f"digit-lifting system unsolvable at digit {j}")
        ebits = [[sol[r * n + c] for c in range(n)] for r in range(n)]
        # P <- (I + X^j E) P
        e_mat = UMatrix.from_int_rows(ring, ebits)
        shift = UMatrix(ring, n, tuple(tuple(ring.shift_up(x, j) for x in row)
                                       for row in e_mat.rows))
        p_mat = (ident + shift) @ p_mat

    conj = p_mat @ a @ p_mat.inv()
    bring = ring
    brows = tuple(tuple(conj.rows[2 * l + i][2 * l + j] for j in range(small))
                  for i in range(small))
    b_mat = UMatrix(bring, small, brows)
    form = BGForm(P=p_mat, swap_count=l, B=b_mat, level=k)
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
    form = bg_blockform(a, dval)
    l = form.swap_count
    if l > 0:
        small = n - 2 * l
        conj = form.P @ a @ form.P.inv()
        if small == 0:
            b_rep = None
        else:
            brows = tuple(tuple(conj.rows[2 * l + i][2 * l + j] for j in range(small))
                          for i in range(small))
            b_mat = UMatrix(ring, small, brows)
            bdval = ((b_mat @ b_mat) - UMatrix.identity(ring, small)).min_valuation()
            if bdval < dval:
                raise ReductionFailed("small block lost defect depth")
            b_rep = _repair_rec(b_mat, bdval)
        rows = [[0] * n for _ in range(n)]
        for i in range(l):
            rows[i][l + i] = ring.one
            rows[l + i][i] = ring.one
        if b_rep is not None:
            for i in range(small):
                for j in range(small):
                    rows[2 * l + i][2 * l + j] = b_rep.rows[i][j]
        fixed = UMatrix(ring, n, tuple(tuple(r) for r in rows))
        return form.P.inv() @ fixed @ form.P
    # l == 0: A = I + X^j M with j maximal; either I is near enough or the
    # defect rescales by X^{-j} and the recursion drops to the swap branch.
    j = (a - ident).min_valuation()
    if j >= K:
        return a
    half = dval // 2
    if j >= half + (dval % 2):
        return ident
    m_rows = tuple(tuple(ring.shift_down(x, j) for x in row) for row in (a - ident).rows)
    inner = ident + UMatrix(ring, n, m_rows)
    inner_dval = ((inner @ inner) - ident).min_valuation()
    inner_fixed = _repair_rec(inner, inner_dval)
    m_fixed = inner_fixed - ident
    lifted = tuple(tuple(ring.shift_up(x, j) for x in row) for row in m_fixed.rows)
    return ident + UMatrix(ring, n, lifted)

