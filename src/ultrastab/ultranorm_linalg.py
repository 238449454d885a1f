"""Matrices over a truncated local ring with the entrywise sup ultranorm.

The norm of a matrix is the largest norm of an entry, equivalently
p^{-(minimum entry valuation)}.  Invertibility over the local ring is
detected on the residue field; inverses, the local Smith form and the
linear solver use unit-pivot elimination, which is exact here because
every nonzero element is a unit times a power of the uniformizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .local_ring import (
    _BITS,
    _SLOT_MASK,
    NormValue,
    RingError,
    RingMismatch,
    RingSpec,
    Scalar,
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

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring: RingSpec, n: int, rows: Tuple[Tuple[int, ...], ...]):
        self.ring = ring
        self.n = n
        self.rows = rows

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
        if self.ring != other.ring or self.n != other.n:
            raise RingMismatch("matrices over different rings or shapes")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UMatrix):
            return NotImplemented
        return self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        return hash((self.ring, self.rows))

    def entry(self, i: int, j: int) -> Scalar:
        return Scalar(self.ring, self.rows[i][j])

    def __repr__(self) -> str:
        return f"UMatrix({self.n}x{self.n} over {self.ring.mode} p={self.ring.p} K={self.ring.precision})"

    # -- arithmetic -----------------------------------------------------------

    def __matmul__(self, other: "UMatrix") -> "UMatrix":
        self._check(other)
        ring = self.ring
        cols = tuple(zip(*other.rows))
        if ring.is_mixed:
            M = ring.modulus
            rows = tuple(
                tuple(sum(a * b for a, b in zip(arow, bcol)) % M for bcol in cols)
                for arow in self.rows
            )
        else:
            dot = ring.dot
            rows = tuple(tuple(dot(arow, bcol) for bcol in cols) for arow in self.rows)
        return UMatrix(ring, self.n, rows)

    def __add__(self, other: "UMatrix") -> "UMatrix":
        self._check(other)
        add = self.ring.add
        return UMatrix(self.ring, self.n,
                       tuple(tuple(add(a, b) for a, b in zip(ra, rb))
                             for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "UMatrix") -> "UMatrix":
        self._check(other)
        sub = self.ring.sub
        return UMatrix(self.ring, self.n,
                       tuple(tuple(sub(a, b) for a, b in zip(ra, rb))
                             for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "UMatrix":
        neg = self.ring.neg
        return UMatrix(self.ring, self.n, tuple(tuple(neg(a) for a in r) for r in self.rows))

    def scale(self, c: int) -> "UMatrix":
        mul = self.ring.mul
        return UMatrix(self.ring, self.n, tuple(tuple(mul(c, a) for a in r) for r in self.rows))

    def transpose(self) -> "UMatrix":
        return UMatrix(self.ring, self.n, tuple(zip(*self.rows)))

    def pow_int(self, e: int) -> "UMatrix":
        if e < 0:
            return self.inv().pow_int(-e)
        result = UMatrix.identity(self.ring, self.n)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    # -- precision ---------------------------------------------------------

    def reduce(self, m: int) -> "UMatrix":
        ring_m = self.ring.with_precision(m)
        red = self.ring.reduce_raw
        return UMatrix(ring_m, self.n, tuple(tuple(red(a, m) for a in r) for r in self.rows))

    def lift_to(self, ring: RingSpec) -> "UMatrix":
        """Canonical lift into a higher-precision ring (raw values unchanged)."""
        if ring.mode != self.ring.mode or ring.p != self.ring.p:
            raise RingMismatch("lift must stay in the same ring family")
        if ring.precision < self.ring.precision:
            raise RingError("lift target must not lose precision")
        return UMatrix(ring, self.n, self.rows)

    # -- norm and membership ---------------------------------------------------

    def min_valuation(self) -> int:
        ring = self.ring
        best = ring.precision
        for row in self.rows:
            for a in row:
                if a:
                    v = ring.val(a)
                    if v < best:
                        best = v
                        if best == 0:
                            return 0
        return best

    def matnorm(self) -> NormValue:
        return NormValue.from_valuation(self.ring, self.min_valuation())

    def dist(self, other: "UMatrix") -> NormValue:
        return (self - other).matnorm()

    def residue_rows(self) -> List[List[int]]:
        """Entries reduced to the residue field F_p."""
        ring = self.ring
        if ring.is_mixed:
            return [[a % ring.p for a in row] for row in self.rows]
        return [[a & _SLOT_MASK for a in row] for row in self.rows]

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
        ring = self.ring
        n = self.n
        m = [list(r) for r in self.rows]
        aug = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if ring.is_unit(m[r][col])), None)
            if piv is None:
                raise NonInvertible("matrix has non-unit determinant")
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                aug[col], aug[piv] = aug[piv], aug[col]
            pinv = ring.inv(m[col][col])
            m[col] = [ring.mul(pinv, a) for a in m[col]]
            aug[col] = [ring.mul(pinv, a) for a in aug[col]]
            for r in range(n):
                if r == col:
                    continue
                f = m[r][col]
                if f:
                    m[r] = [ring.sub(a, ring.mul(f, b)) for a, b in zip(m[r], m[col])]
                    aug[r] = [ring.sub(a, ring.mul(f, b)) for a, b in zip(aug[r], aug[col])]
        return UMatrix(ring, n, tuple(tuple(r) for r in aug))

    # -- congruence coordinates -------------------------------------------------

    def congruence_coords(self, k: int) -> "UMatrix":
        """M with self = I + w^k M exactly; requires dist(self, I) <= p^{-k}."""
        if k < 1:
            raise RingError("congruence level must be >= 1")
        ring = self.ring
        diff = self - UMatrix.identity(ring, self.n)
        if diff.min_valuation() < k:
            raise NotInBall(f"matrix is not within p^-{k} of the identity")
        down = ring.shift_down
        return UMatrix(ring, self.n, tuple(tuple(down(a, k) for a in r) for r in diff.rows))

    def congruence_lift(self, k: int) -> "UMatrix":
        """I + w^k * self; inverse of congruence_coords on canonical inputs."""
        ring = self.ring
        up = ring.shift_up
        shifted = UMatrix(ring, self.n, tuple(tuple(up(a, k) for a in r) for r in self.rows))
        return UMatrix.identity(ring, self.n) + shifted

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


# -- local Smith form and linear solving ------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = diag(w^{d_1}, ..., w^{d_n}) with U, V invertible."""

    U: UMatrix
    V: UMatrix
    diag_vals: Tuple[int, ...]

    def reconstruct(self, a: UMatrix) -> bool:
        ring = a.ring
        n = a.n
        d = self.U @ a @ self.V
        expect = [[ring.omega_pow(self.diag_vals[i]) if i == j else 0 for j in range(n)]
                  for i in range(n)]
        return d.rows == tuple(tuple(r) for r in expect)


def _smith_raw(ring: RingSpec, rows: List[List[int]]):
    """Bring a rectangular raw matrix to diagonal uniformizer powers.

    Returns (U, V, diag) with U (nr x nr), V (nc x nc) invertible raw lists
    and U @ A @ V diagonal; pivots are chosen with minimal valuation, ties
    broken by lowest row then column index.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    K = ring.precision
    m = [list(r) for r in rows]
    U = [[ring.one if i == j else 0 for j in range(nr)] for i in range(nr)]
    V = [[ring.one if i == j else 0 for j in range(nc)] for i in range(nc)]
    diag: List[int] = []
    steps = min(nr, nc)
    for t in range(steps):
        best = None
        best_v = K
        for i in range(t, nr):
            mi = m[i]
            for j in range(t, nc):
                a = mi[j]
                if a:
                    v = ring.val(a)
                    if v < best_v:
                        best_v = v
                        best = (i, j)
                        if v == 0:
                            break
            if best_v == 0:
                break
        if best is None:
            diag.extend([K] * (steps - t))
            break
        bi, bj = best
        if bi != t:
            m[t], m[bi] = m[bi], m[t]
            U[t], U[bi] = U[bi], U[t]
        if bj != t:
            for r in m:
                r[t], r[bj] = r[bj], r[t]
            for r in V:
                r[t], r[bj] = r[bj], r[t]
        d = best_v
        diag.append(d)
        uinv = ring.inv(ring.shift_down(m[t][t], d))
        m[t] = [ring.mul(uinv, a) for a in m[t]]
        U[t] = [ring.mul(uinv, a) for a in U[t]]
        # m[t][t] is now exactly w^d; clear the rest of column t ...
        for i in range(nr):
            if i == t:
                continue
            a = m[i][t]
            if a:
                f = ring.shift_down(a, d)
                m[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(m[i], m[t])]
                U[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(U[i], U[t])]
        # ... and of row t.
        for j in range(nc):
            if j == t:
                continue
            a = m[t][j]
            if a:
                g = ring.shift_down(a, d)
                for r in m:
                    r[j] = ring.sub(r[j], ring.mul(g, r[t]))
                for r in V:
                    r[j] = ring.sub(r[j], ring.mul(g, r[t]))
    return U, V, diag, m


def smith_local(a: UMatrix) -> SmithDecomposition:
    U, V, diag, _ = _smith_raw(a.ring, [list(r) for r in a.rows])
    return SmithDecomposition(
        U=UMatrix.from_rows(a.ring, U),
        V=UMatrix.from_rows(a.ring, V),
        diag_vals=tuple(diag),
    )


@dataclass(frozen=True)
class SolveResult:
    """One particular solution plus the valuation lattice of the kernel.

    kernel lists pairs (valuation, generator): for each column variable a
    vector v such that w^{valuation} * anything times v stays a solution;
    valuation K means the coordinate is unconstrained only at zero.
    """

    particular: Tuple[int, ...]
    kernel: Tuple[Tuple[int, Tuple[int, ...]], ...]
    diag_vals: Tuple[int, ...]


def solve_linear(a, b: Sequence[int], ring: Optional[RingSpec] = None) -> SolveResult:
    """Solve A x = b over the ring; raises Unsolvable with the obstruction.

    A may be a UMatrix or a rectangular list of raw rows (with ring given).
    """
    if isinstance(a, UMatrix):
        ring = a.ring
        rows = [list(r) for r in a.rows]
    else:
        if ring is None:
            raise RingError("ring required for raw input")
        rows = [list(r) for r in a]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if len(b) != nr:
        raise RingError("right-hand side has wrong length")
    K = ring.precision
    U, V, diag, _ = _smith_raw(ring, rows)
    c = [ring.dot(U[i], b) for i in range(nr)]
    y = [0] * nc
    for i in range(nr):
        d = diag[i] if i < len(diag) else K
        ci = c[i]
        if i < nc:
            if d >= K:
                if ci != 0:
                    raise Unsolvable(
                        f"zero row demands nonzero value (valuation {ring.val(ci)})",
                        ring.val(ci),
                    )
                y[i] = 0
            else:
                if ring.val(ci) < d:
                    raise Unsolvable(
                        f"obstruction at pivot {i}: valuation {ring.val(ci)} < {d}",
                        ring.val(ci),
                    )
                y[i] = ring.shift_down(ci, d)
        else:
            if ci != 0:
                raise Unsolvable(
                    f"inconsistent row {i} (valuation {ring.val(ci)})", ring.val(ci)
                )
    x = tuple(ring.dot(V[i], y) for i in range(nc))
    kernel = []
    for j in range(nc):
        d = diag[j] if j < len(diag) else K
        kv = max(K - d, 0)
        gen = tuple(ring.shift_up(V[i][j], kv) for i in range(nc))
        if kv < K:
            kernel.append((kv, gen))
    return SolveResult(particular=x, kernel=tuple(kernel), diag_vals=tuple(diag))


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
    eps = ((p_mat @ d_mat) - (d_mat @ p_mat)).matnorm()
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
                    d = ring.sub(c0, _low_part(ring, c0, keep))
            for (i, j, mu_k) in orbit:
                rows[i][j] = ring.mul(mu_k, d)
    out = UMatrix(ring, n, tuple(tuple(r) for r in rows))
    if ((p_mat @ out) - (out @ p_mat)).min_valuation() < K:
        raise RingError("monomial commutant construction failed to commute")
    achieved = (d_mat - out).matnorm()
    if not achieved <= eps:
        raise MonomialBoundExceeded(
            "nearest exact commutant exceeds the commutator defect", out)
    return out


def _low_part(ring: RingSpec, x: int, keep: int) -> int:
    """x mod w^keep: what must be discarded to land on a w^keep-multiple."""
    if ring.is_mixed:
        return x % (ring.p ** keep)
    low = 0
    for i in range(keep):
        low |= ((x >> (_BITS * i)) & _SLOT_MASK) << (_BITS * i)
    return low
