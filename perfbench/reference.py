"""Plain-Python reference arithmetic for checking package outputs.

Elements of Z/p^K are integers in [0, p^K); elements of F_p[X]/(X^K) are
tuples of K coefficients, lowest degree first.  Nothing here imports the
package, so a packing or overflow defect in the package cannot hide in
the check that judges it.
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple

_TOKEN = re.compile(r"^([^\^\s]+)(?:\^(-?\d+))?$")


class Ring:
    """Z/p^K ("zp") or F_p[X]/(X^K) ("fpx") with exact valuations."""

    def __init__(self, mode: str, p: int, K: int):
        if mode not in ("zp", "fpx"):
            raise ValueError(f"unknown ring mode {mode!r}")
        self.mode, self.p, self.K = mode, p, K
        self.M = p ** K
        self.zero = 0 if mode == "zp" else (0,) * K
        self.one = 1 if mode == "zp" else (1,) + (0,) * (K - 1)

    @classmethod
    def from_json(cls, obj: dict) -> "Ring":
        return cls(obj["mode"], int(obj["p"]), int(obj["precision"]))

    def describe(self) -> dict:
        return {"mode": self.mode, "p": self.p, "precision": self.K}

    def from_int(self, v: int):
        return v % self.M if self.mode == "zp" else ((v % self.p,) + (0,) * (self.K - 1))

    def add(self, x, y):
        if self.mode == "zp":
            return (x + y) % self.M
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        if self.mode == "zp":
            return (-x) % self.M
        return tuple((-a) % self.p for a in x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if self.mode == "zp":
            return (x * y) % self.M
        K, p = self.K, self.p
        out = [0] * K
        for i, a in enumerate(x):
            if a:
                for j in range(K - i):
                    out[i + j] += a * y[j]
        return tuple(c % p for c in out)

    def val(self, x) -> int:
        if self.mode == "zp":
            if x == 0:
                return self.K
            v = 0
            while x % self.p == 0:
                x //= self.p
                v += 1
            return v
        return next((i for i, c in enumerate(x) if c), self.K)

    def shift(self, x, k: int):
        """Multiply by the k-th power of the uniformizer."""
        if self.mode == "zp":
            return (x * self.p ** k) % self.M
        return ((0,) * k + tuple(x))[: self.K]

    def inv(self, x):
        if self.val(x) != 0:
            raise ZeroDivisionError("not a unit")
        if self.mode == "zp":
            return pow(x, -1, self.M)
        p, K = self.p, self.K
        a0inv = pow(x[0], -1, p)
        b = [a0inv] + [0] * (K - 1)
        for d in range(1, K):
            s = sum(x[i] * b[d - i] for i in range(1, d + 1))
            b[d] = (-a0inv * s) % p
        return tuple(b)

    def random(self, rng):
        if self.mode == "zp":
            return rng.randrange(self.M)
        return tuple(rng.randrange(self.p) for _ in range(self.K))

    def encode(self, x):
        return str(x) if self.mode == "zp" else list(x)

    def decode(self, obj):
        if self.mode == "zp":
            return int(obj) % self.M
        coeffs = [int(c) % self.p for c in obj][: self.K]
        return tuple(coeffs + [0] * (self.K - len(coeffs)))


Matrix = List[List[object]]


def identity(R: Ring, n: int) -> Matrix:
    return [[R.one if i == j else R.zero for j in range(n)] for i in range(n)]


def matmul(R: Ring, a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = R.zero
            for t in range(n):
                acc = R.add(acc, R.mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(row)
    return out


def matsub(R: Ring, a: Matrix, b: Matrix) -> Matrix:
    return [[R.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def matval(R: Ring, a: Matrix) -> int:
    """Minimum entry valuation: the sup ultranorm as an exponent."""
    return min((R.val(x) for row in a for x in row), default=R.K)


def matinv(R: Ring, a: Matrix) -> Matrix:
    """Gauss-Jordan with unit pivots; raises ZeroDivisionError if singular."""
    n = len(a)
    m = [list(r) + [R.one if i == j else R.zero for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if R.val(m[r][col]) == 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is not invertible")
        m[col], m[piv] = m[piv], m[col]
        inv = R.inv(m[col][col])
        m[col] = [R.mul(inv, x) for x in m[col]]
        for r in range(n):
            f = m[r][col]
            if r != col and R.val(f) < R.K:
                m[r] = [R.sub(x, R.mul(f, y)) for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


# ---------------------------------------------------------------------------
# Representations in the package's JSON file format
# ---------------------------------------------------------------------------


def rep_json(R: Ring, generators: Sequence[str], relators, images: Sequence[Matrix]) -> dict:
    """An approx_rep file object, as the package's loader expects it."""
    return {
        "schema_version": 1,
        "kind": "approx_rep",
        "presentation": {"generators": list(generators),
                         "relators": [list(r) for r in relators]},
        "ring": R.describe(),
        "n": len(images[0]),
        "images": [[R.encode(x) for row in m for x in row] for m in images],
    }


def load_rep(obj: dict) -> Tuple[Ring, List[str], list, List[Matrix]]:
    R = Ring.from_json(obj["ring"])
    n = int(obj["n"])
    images = [[[R.decode(flat[i * n + j]) for j in range(n)] for i in range(n)]
              for flat in obj["images"]]
    pres = obj["presentation"]
    return R, list(pres["generators"]), [list(r) for r in pres["relators"]], images


def load_matrix(obj: dict) -> Tuple[Ring, Matrix]:
    """A matrix file object: {"ring": ..., "n": n, "entries": [...]}."""
    R = Ring.from_json(obj["ring"])
    n = int(obj["n"])
    flat = [R.decode(x) for x in obj["entries"]]
    return R, [flat[i * n:(i + 1) * n] for i in range(n)]


def eval_word(R: Ring, names: Sequence[str], images: Sequence[Matrix], tokens) -> Matrix:
    n = len(images[0])
    out = identity(R, n)
    inverses = {}
    for tok in tokens:
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad word token {tok!r}")
        gi = names.index(m.group(1))
        e = int(m.group(2)) if m.group(2) is not None else 1
        if e < 0:
            if gi not in inverses:
                inverses[gi] = matinv(R, images[gi])
            base, e = inverses[gi], -e
        else:
            base = images[gi]
        for _ in range(e):
            out = matmul(R, out, base)
    return out


def defect_val(R: Ring, names, relators, images) -> int:
    """Valuation of the defect: the worst relator's distance to I."""
    ident = identity(R, len(images[0]))
    return min((matval(R, matsub(R, eval_word(R, names, images, r), ident))
                for r in relators), default=R.K)


def dist_val(R: Ring, before: Sequence[Matrix], after: Sequence[Matrix]) -> int:
    return min(matval(R, matsub(R, a, b)) for a, b in zip(before, after))


def check_repair(before: dict, after: dict, p_part: int) -> str:
    """'' if `after` is an exact homomorphism within p^l * defect of `before`.

    Otherwise a one-line reason.  `p_part` is l, the exponent of p in the
    order of the finite image, known from how the input was built.
    """
    R, names, relators, imgs0 = load_rep(before)
    R1, names1, relators1, imgs1 = load_rep(after)
    if (R1.describe(), names1, relators1) != (R.describe(), names, relators):
        return "output carries another ring or presentation"
    if defect_val(R, names, relators, imgs1) < R.K:
        return "a relator of the output is not exactly the identity"
    d = defect_val(R, names, relators, imgs0)
    moved = dist_val(R, imgs0, imgs1)
    if moved < d - p_part:
        return f"distance bound broken: moved to level {moved}, bound {d - p_part}"
    return ""


def check_involution(before: dict, after: dict) -> str:
    """'' if the output squares to I exactly and dist^2 <= ||A^2 - I||."""
    R, _, _, (a,) = load_rep(before)
    _, _, _, (b,) = load_rep(after)
    ident = identity(R, len(a))
    if matval(R, matsub(R, matmul(R, b, b), ident)) < R.K:
        return "output is not an exact involution"
    d = matval(R, matsub(R, matmul(R, a, a), ident))
    if 2 * matval(R, matsub(R, a, b)) < d:
        return "quadratic bound broken"
    return ""
