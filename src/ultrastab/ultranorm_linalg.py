"""Matrices over a truncated local ring with the entrywise sup ultranorm.

The norm of a matrix is the largest norm of an entry, equivalently
p^{-(minimum entry valuation)}.  Entrywise arithmetic (sums, differences,
negation, scaling, reduction, the congruence coordinates and lift) costs
one ring row operation per row, and a valuation, of a matrix or of a
difference, one gcd (Z/p^K) or one OR (F_p[X]/(X^K)) per row, with
neither the difference nor the identity formed.  Invertibility over the
local ring is detected on the residue field; inverses and the linear
solver use unit-pivot elimination, which is exact here because every
nonzero element is a unit times a power of the uniformizer.  The solver returns
one particular solution, back-substituted through the pivot rows: the
elimination's products plus rank^2 / 2, and no Smith form V.

Every product goes through one kernel (_product_rows): each row of the
right factor is packed into one integer (Kronecker substitution), so row
r of a product is one sum(map(mul, row, packed)) of n big-int products
of an element, b bits, by a packed row of n fields, then n field reads.
Z/p^K fields are 2 bits(p^K - 1) + bits(n) wide and each is read with one
% p^K; F_p[X]/(X^K) fields are (2K - 1) W bits, W the ring's slot width,
and the row is reduced per SUM_TERMS products by the ring's slotwise
multiply-shift, once on the even and once on the odd slots of the row
(a mask for p = 2).  An n x n product thus costs n sums of n
big-int products of b by about 2 n b bits and n^2 field reads, against
n^2 sums of n products of b by b bits entry by entry: twice the big-int
work for n times fewer interpreter steps, which pays while b is small
against the interpreter's cost per step.  A matrix packs its rows on its
first use as a right factor and keeps them; the layout, a product's
field width and reduction constants, is built once per ring and n and
found by the interned ring's identity.
"""

from __future__ import annotations

from itertools import repeat
from operator import lshift, mul
from typing import List, Optional, Sequence, Tuple

from .local_ring import (
    SUM_TERMS,
    NormValue,
    RingError,
    RingMismatch,
    RingSpec,
)


class NonInvertible(RingError):
    pass


class NotInBall(RingError):
    pass


class Unsolvable(RingError):
    """Linear system has no solution; carries the obstruction valuation."""

    def __init__(self, message: str, obstruction_valuation: int):
        super().__init__(message)
        self.obstruction_valuation = obstruction_valuation


class UMatrix:
    """Immutable n x n matrix over a RingSpec, entries in canonical raw form."""

    __slots__ = ("ring", "n", "rows", "_packed")

    def __init__(self, ring: RingSpec, n: int, rows: Tuple[Tuple[int, ...], ...]):
        self.ring = ring
        self.n = n
        self.rows = rows
        self._packed = None  # (layout, packed rows), made on first use as a right factor

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, ring: RingSpec, rows: Sequence[Sequence[int]]) -> "UMatrix":
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise RingError("matrix must be square")
        return cls(ring, n, tuple(tuple(r) for r in rows))

    @classmethod
    def from_int_rows(cls, ring: RingSpec, rows: Sequence[Sequence[int]]) -> "UMatrix":
        return cls.from_rows(ring, [[ring.from_int(v) for v in r] for r in rows])

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "UMatrix":
        one, zero = ring.one, ring.zero
        return cls(ring, n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, ring: RingSpec, n: int) -> "UMatrix":
        return cls(ring, n, tuple((0,) * n for _ in range(n)))

    @classmethod
    def random(cls, ring: RingSpec, n: int, rng) -> "UMatrix":
        return cls(ring, n, tuple(tuple(ring.random_raw(rng) for _ in range(n)) for _ in range(n)))

    # -- basics -------------------------------------------------------------

    def _check(self, other: "UMatrix") -> None:
        if (self.ring is not other.ring and self.ring != other.ring) or self.n != other.n:
            raise RingMismatch("matrices over different rings or shapes")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UMatrix):
            return NotImplemented
        return self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self) -> str:
        return f"UMatrix({self.n}x{self.n} over {self.ring.mode} p={self.ring.p} K={self.ring.precision})"

    # -- arithmetic -----------------------------------------------------------

    def __matmul__(self, other: "UMatrix") -> "UMatrix":
        self._check(other)
        got = other._packed
        if got is None:
            lay = _layout(self.ring, self.n)
            got = other._packed = (lay, [sum(map(lshift, r, lay.shifts)) for r in other.rows])
        return UMatrix(self.ring, self.n, _product_rows(got[0], self.rows, got[1]))

    def __add__(self, other: "UMatrix") -> "UMatrix":
        self._check(other)
        return UMatrix(self.ring, self.n,
                       tuple(map(tuple, map(self.ring.row_add, self.rows, other.rows))))

    def __sub__(self, other: "UMatrix") -> "UMatrix":
        self._check(other)
        return UMatrix(self.ring, self.n,
                       tuple(map(tuple, map(self.ring.row_sub, self.rows, other.rows))))

    def __neg__(self) -> "UMatrix":
        return UMatrix(self.ring, self.n, tuple(map(tuple, map(self.ring.row_neg, self.rows))))

    def scale(self, c: int) -> "UMatrix":
        return UMatrix(self.ring, self.n,
                       tuple(map(tuple, map(self.ring.row_scale, repeat(c), self.rows))))

    # -- precision ---------------------------------------------------------

    def reduce(self, m: int) -> "UMatrix":
        return UMatrix(self.ring.with_precision(m), self.n,
                       tuple(map(tuple, map(self.ring.row_reduce, self.rows, repeat(m)))))

    def lift_to(self, ring: RingSpec) -> "UMatrix":
        """Canonical lift into a higher-precision ring (raw values unchanged)."""
        if ring.mode != self.ring.mode or ring.p != self.ring.p:
            raise RingMismatch("lift must stay in the same ring family")
        if ring.precision < self.ring.precision:
            raise RingError("lift target must not lose precision")
        return UMatrix(ring, self.n, self.rows)

    # -- norm and membership ---------------------------------------------------

    def min_valuation(self) -> int:
        return self.ring.min_val(self.rows)

    def matnorm(self) -> NormValue:
        return NormValue.from_valuation(self.ring, self.min_valuation())

    def dist_valuation(self, other: Optional["UMatrix"] = None) -> int:
        """min_valuation of self - other, other the identity when None,
        read with neither the difference nor the identity formed."""
        if other is None:
            return self.ring.min_val_diff(self.rows)
        self._check(other)
        return self.ring.min_val_diff(self.rows, other.rows)

    def dist(self, other: "UMatrix") -> NormValue:
        return NormValue.from_valuation(self.ring, self.dist_valuation(other))

    def residue_rows(self) -> List[List[int]]:
        """Entries reduced to the residue field F_p."""
        digit = self.ring.digit
        return [[digit(a, 0) for a in row] for row in self.rows]

    def is_gl(self) -> bool:
        """Unit determinant, checked on the residue field."""
        p = self.ring.p
        m = self.residue_rows()
        n = self.n
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col] % p), None)
            if piv is None:
                return False
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
            inv = pow(m[col][col], -1, p)
            for r in range(col + 1, n):
                f = (m[r][col] * inv) % p
                if f:
                    m[r] = [(a - f * b) % p for a, b in zip(m[r], m[col])]
        return True

    # -- inverse -------------------------------------------------------------

    def inv(self) -> "UMatrix":
        """Gauss-Jordan elimination on [self | I] with unit pivots."""
        ring, n = self.ring, self.n
        submul = ring.row_submul
        m = [list(r) + [ring.one if i == j else ring.zero for j in range(n)]
             for i, r in enumerate(self.rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if ring.is_unit(m[r][col])), None)
            if piv is None:
                raise NonInvertible("matrix has non-unit determinant")
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
            pinv = ring.inv(m[col][col])
            # columns left of col are zero in every row but their pivot's
            pivot_row = m[col][col:] = ring.row_scale(pinv, m[col][col:])
            for r in range(n):
                f = m[r][col]
                if f and r != col:
                    m[r][col:] = submul(m[r][col:], f, pivot_row)
        return UMatrix(ring, n, tuple(tuple(r[n:]) for r in m))

    # -- congruence coordinates -------------------------------------------------

    def congruence_coords(self, k: int) -> "UMatrix":
        """M with self = I + w^k M exactly; requires dist(self, I) <= p^{-k}."""
        if k < 1:
            raise RingError("congruence level must be >= 1")
        if self.dist_valuation() < k:
            raise NotInBall(f"matrix is not within p^-{k} of the identity")
        ring = self.ring
        ident = UMatrix.identity(ring, self.n).rows
        return UMatrix(ring, self.n, tuple(map(tuple, map(
            ring.row_coords, self.rows, ident, repeat(k), repeat(ring.precision)))))

    def congruence_lift(self, k: int) -> "UMatrix":
        """I + w^k * self; inverse of congruence_coords on canonical inputs."""
        return UMatrix(self.ring, self.n, tuple(map(tuple, map(
            self.ring.row_lift, self.rows, repeat(k), range(self.n)))))

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        enc = self.ring.encode
        return {
            "ring": self.ring.describe(),
            "n": self.n,
            "entries": [enc(a) for row in self.rows for a in row],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UMatrix":
        ring = RingSpec.from_json(obj["ring"])
        n = int(obj["n"])
        flat = obj["entries"]
        if len(flat) != n * n:
            raise RingError("entry count does not match dimension")
        dec = ring.decode
        rows = tuple(tuple(dec(flat[i * n + j]) for j in range(n)) for i in range(n))
        return cls(ring, n, rows)


# -- the product kernel -------------------------------------------------------


class _Layout:
    """How the right factor of a product of n x n matrices over a ring is packed.

    Row a of the right factor becomes one integer, the entry of column t
    in the field at bit width * t; a sum of n products of an entry by a
    field fits each field with no carry into the next.  An F_p[X]/(X^K)
    field is 2K - 1 slots wide, so it starts at slot t (2K - 1) of the
    row: the ring's even and odd slot masks of _reduce_acc swap in every
    odd field, which keeps the parity of each slot that of its index in
    the whole row (adjacent fields at K = 1).
    """

    __slots__ = ("ring", "width", "shifts", "mask", "modulus", "p", "reduction")

    def __init__(self, ring: RingSpec, n: int):
        self.ring = ring  # held, so that the id _layout keys it by stays taken
        self.p = ring.p
        if ring.is_mixed:
            self.modulus = ring.modulus
            self.width = 2 * (self.modulus - 1).bit_length() + n.bit_length()
            self.mask = (1 << self.width) - 1
        else:
            self.modulus = 0
            self.width = (2 * ring.precision - 1) * ring._w
            self.mask = ring._full
        self.shifts = range(0, n * self.width, self.width)
        if ring.is_mixed:
            return
        # the ring's reduction constants repeated in every field
        spread = sum(1 << sh for sh in self.shifts)
        if ring.p == 2:  # keeping bit 0 of each slot is the whole reduction
            self.reduction = (ring._low * spread, 0, 0, 0, 0, 0)
            return
        full, even, m, s, qeven, qodd = ring._reduction
        odd_fields = sum(1 << sh for sh in self.shifts[1::2])
        even_fields = spread - odd_fields
        self.reduction = (full * spread, even * even_fields + (full ^ even) * odd_fields, m, s,
                          qeven * even_fields + qodd * odd_fields,
                          qodd * even_fields + qeven * odd_fields)


_layouts: dict = {}  # (id of the interned ring, n) -> _Layout


def _layout(ring: RingSpec, n: int) -> _Layout:
    """One layout per ring and n, looked up by __matmul__ only to pack a right factor."""
    key = (id(ring._interned), n)
    lay = _layouts.get(key)
    if lay is None:
        lay = _layouts[key] = _Layout(ring._interned, n)
    return lay


def _product_rows(lay: _Layout, lrows, packed: List[int]) -> Tuple[Tuple[int, ...], ...]:
    """Rows of lrows @ (the matrix whose rows are packed at lay.shifts), canonical.

    Cost per row: n big-int products of an element by a packed row, then
    one shift, mask and reduction per field.
    """
    shifts, mask = lay.shifts, lay.mask
    if lay.modulus:
        M = lay.modulus
        return tuple(tuple([((t >> sh) & mask) % M for sh in shifts])
                     for t in [sum(map(mul, row, packed)) for row in lrows])
    p = lay.p
    full, even, m, s, qeven, qodd = lay.reduction
    out = []
    if len(packed) <= SUM_TERMS:
        for row in lrows:
            t = sum(map(mul, row, packed)) & full
            if p != 2:
                e = t & even
                t -= p * ((((e * m) >> s) & qeven) | ((((t ^ e) * m) >> s) & qodd))
            out.append(tuple([(t >> sh) & mask for sh in shifts]))
        return tuple(out)
    # longer rows are reduced after every SUM_TERMS products
    cuts = range(0, len(packed), SUM_TERMS)
    chunks = [packed[i:i + SUM_TERMS] for i in cuts]
    for row in lrows:
        t = 0
        for i, chunk in zip(cuts, chunks):
            t = (t + sum(map(mul, row[i:i + SUM_TERMS], chunk))) & full
            if p != 2:
                e = t & even
                t -= p * ((((e * m) >> s) & qeven) | ((((t ^ e) * m) >> s) & qodd))
        out.append(tuple([(t >> sh) & mask for sh in shifts]))
    return tuple(out)


# -- linear solving ----------------------------------------------------------


def solve_linear(rows, b: Sequence[int], ring: RingSpec) -> Tuple[int, ...]:
    """One solution x of A x = b over the ring; raises Unsolvable with the obstruction.

    A is a rectangular list of raw rows.  Rows of the augmented [A | b]
    are eliminated with pivots of minimal valuation, the first in
    row-major order from (t, t); pivot valuations never decrease, so the
    scan stops at the first entry of the previous pivot's valuation, and
    skips the rows of A it has found zero from column t on, which stay so.
    Column swaps are kept as a permutation P, and pivot row t, scaled so
    that its pivot is w^{d_t}, is w^{d_t} times row t of a unit
    upper-triangular W.  The local Smith form U A V = D thus has V =
    P W^{-1}, and x = V y, y_t = (U b)_t / w^{d_t}, is back-substituted
    through W; the free coordinates (beyond the rank) are 0.  Cost: about
    sum over t of (nr - t)(nc + 1 - t) products for the elimination and
    rank^2 / 2 for the back-substitution.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if len(b) != nr:
        raise RingError("right-hand side has wrong length")
    K = ring.precision
    val, shift_down = ring.val, ring.shift_down
    submul = ring.row_submul
    m = [list(r) + [c] for r, c in zip(rows, b)]
    perm = list(range(nc))  # perm[q]: the column of A at position q
    diag: List[int] = []
    # zero[i]: row i of A is zero from column t on; row operations leave it so
    zero = [False] * nr
    d = 0
    for t in range(min(nr, nc)):
        best = None
        best_v = K
        for i in range(t, nr):
            if zero[i]:
                continue
            mi = m[i]
            live = False
            for j in range(t, nc):
                a = mi[j]
                if a:
                    live = True
                    v = val(a)
                    if v < best_v:
                        best_v = v
                        best = (i, j)
                        if v == d:
                            break
            zero[i] = not live
            if best_v == d:
                break
        if best is None:
            break
        d = best_v
        diag.append(d)
        bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        zero[t], zero[bi] = zero[bi], zero[t]
        if bj != t:
            for r in m:
                r[t], r[bj] = r[bj], r[t]
            perm[t], perm[bj] = perm[bj], perm[t]
        # Row t scaled so that its pivot is exactly w^d; only its entries
        # right of the pivot are read again.
        mt = m[t]
        uinv = ring.inv(shift_down(mt[t], d))
        mt[t + 1:] = right = ring.row_scale(uinv, mt[t + 1:])
        # Clear column t below the pivot; the column itself is not read again.
        for mi in m[t + 1:]:
            a = mi[t]
            if a:
                mi[t + 1:] = submul(mi[t + 1:], shift_down(a, d), right)
    rank = len(diag)
    for i, r in enumerate(m):
        c = r[nc]
        if i < rank:
            if val(c) < diag[i]:
                raise Unsolvable(f"obstruction at pivot {i}: valuation {val(c)} < {diag[i]}",
                                 val(c))
        elif c:
            v = val(c)
            raise Unsolvable(f"zero row demands nonzero value (valuation {v})" if i < nc
                             else f"inconsistent row {i} (valuation {v})", v)
    z = [0] * rank
    for t in range(rank - 1, -1, -1):
        # w^d divides row t from its pivot on, and its right side (checked
        # above): one row pass divides both
        d, row = diag[t], m[t][t + 1:rank] + m[t][nc:]
        if d:
            row = ring.row_coords(row, [0] * len(row), d, K)
        z[t] = ring.sub(row[-1], ring.dot(row[:-1], z[t + 1:]))
    x = [0] * nc
    for q, zq in zip(perm, z):
        x[q] = zq
    return tuple(x)


# -- monomial commutant ------------------------------------------------------


class NotMonomial(RingError):
    pass


class MonomialBoundExceeded(RingError):
    """The exact commutant is farther than the commutator defect.

    This can only happen when some orbit's scalar product is a nontrivial
    unit congruent to 1 mod w; the exact solution is still returned through
    the exception for inspection.
    """

    def __init__(self, message: str, result: "UMatrix"):
        super().__init__(message)
        self.result = result


def monomial_permutation(p_mat: UMatrix) -> Tuple[List[int], List[int]]:
    """(sigma, lambda) with P_{i, sigma(i)} = lambda_i the only nonzeros."""
    ring = p_mat.ring
    n = p_mat.n
    sigma = [-1] * n
    lam = [0] * n
    used_cols = set()
    for i in range(n):
        nz = [j for j in range(n) if p_mat.rows[i][j] != 0]
        if len(nz) != 1 or nz[0] in used_cols:
            raise NotMonomial("matrix is not monomial")
        j = nz[0]
        if not ring.is_unit(p_mat.rows[i][j]):
            raise NotMonomial("monomial entries must be units")
        sigma[i] = j
        lam[i] = p_mat.rows[i][j]
        used_cols.add(j)
    return sigma, lam


def nearest_monomial_commutant(p_mat: UMatrix, d_mat: UMatrix) -> UMatrix:
    """D' with P D' = D' P exactly and ||D - D'|| <= ||PD - DP||.

    Orbit propagation: on the diagonal orbit of an entry pair, each value
    is a fixed unit multiple of the representative's, so one value per
    orbit decides D'.  A representative whose full-orbit scalar product is
    a nontrivial unit must be rounded into the annihilator of
    (1 - product) to close the orbit exactly; if the rounding exceeds the
    commutator defect (only possible with the product congruent to 1 mod
    w), the bound is honestly reported as exceeded.
    """
    ring = p_mat.ring
    n = p_mat.n
    K = ring.precision
    sigma, lam = monomial_permutation(p_mat)
    eps = (p_mat @ d_mat).dist(d_mat @ p_mat)
    rows = [[0] * n for _ in range(n)]
    seen = set()
    for i0 in range(n):
        for j0 in range(n):
            if (i0, j0) in seen:
                continue
            orbit = []
            mu = ring.one
            i, j = i0, j0
            while True:
                orbit.append((i, j, mu))
                seen.add((i, j))
                mu = ring.mul(mu, ring.mul(ring.inv(lam[i]), lam[j]))
                i, j = sigma[i], sigma[j]
                if (i, j) == (i0, j0):
                    break
            total = mu  # full-orbit product
            c0 = d_mat.rows[i0][j0]
            if total == ring.one:
                d = c0
            else:
                v = ring.val(ring.sub(ring.one, total))
                keep = K - v
                if keep <= 0:
                    d = c0
                else:
                    d = ring.sub(c0, ring.low_part(c0, keep))
            for (i, j, mu_k) in orbit:
                rows[i][j] = ring.mul(mu_k, d)
    out = UMatrix(ring, n, tuple(tuple(r) for r in rows))
    if (p_mat @ out).dist_valuation(out @ p_mat) < K:
        raise RingError("monomial commutant construction failed to commute")
    achieved = d_mat.dist(out)
    if not achieved <= eps:
        raise MonomialBoundExceeded(
            "nearest exact commutant exceeds the commutator defect", out)
    return out

