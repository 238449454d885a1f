"""Seeded random property suites, shared by the CLI and the test suite.

Each suite draws its samples from a fixed-seed generator and returns the
number of violations found; a nonzero count is a hard failure.
"""

from __future__ import annotations

import random
from typing import Tuple

from .local_ring import NormValue, RingSpec
from .ultranorm_linalg import (
    MonomialBoundExceeded,
    UMatrix,
    nearest_monomial_commutant,
)
from .witnesses import CyclicGroup, WreathGroup


def random_gl(ring: RingSpec, n: int, rng: random.Random) -> UMatrix:
    while True:
        m = UMatrix.random(ring, n, rng)
        if m.is_gl():
            return m


def _schoolbook(ring: RingSpec, x: int, y: int) -> Tuple[int, int]:
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


def ring_laws(ring: RingSpec, samples: int, rng: random.Random) -> int:
    """Values of sums and products against a schoolbook reference, and the
    ultrametric and multiplicativity laws of the scalar valuation."""
    bad = 0
    K = ring.precision
    for _ in range(samples):
        x = ring.random_raw(rng)
        y = ring.random_raw(rng)
        if (ring.add(x, y), ring.mul(x, y)) != _schoolbook(ring, x, y):
            bad += 1
        vx, vy = ring.val(x), ring.val(y)
        vs = ring.val(ring.add(x, y))
        if vs < min(vx, vy):
            bad += 1
        if vx != vy and vs != min(vx, vy):
            bad += 1
        if ring.val(ring.mul(x, y)) != min(vx + vy, K):
            bad += 1
        if ring.is_unit(x):
            ix = ring.inv(x)
            if ring.mul(x, ix) != ring.one or ring.inv(ix) != x:
                bad += 1
        if ring.is_unit(x) and ring.is_unit(y):
            if ring.inv(ring.mul(x, y)) != ring.mul(ring.inv(y), ring.inv(x)):
                bad += 1
    return bad


def norm_laws(ring: RingSpec, n: int, samples: int, rng: random.Random) -> int:
    """The six matrix-norm laws: ultrametric triangle, submultiplicativity,
    operator-norm equality on basis columns, unit norm on GL, stability of
    GL under small perturbation, and two-sided GL-invariance."""
    bad = 0
    ident = UMatrix.identity(ring, n)
    for _ in range(samples):
        a = UMatrix.random(ring, n, rng)
        b = UMatrix.random(ring, n, rng)
        c = UMatrix.random(ring, n, rng)
        # 1: ultrametric inequality for dist
        dac = a.dist(c)
        if not dac <= max(a.dist(b), b.dist(c)):
            bad += 1
        # 2: submultiplicativity
        if not (a @ b).matnorm() <= a.matnorm() * b.matnorm():
            bad += 1
        # 3: operator norm attained on a standard basis column
        col_best = min(
            min((ring.val(a.rows[i][j]) for i in range(n)), default=ring.precision)
            for j in range(n)
        )
        if col_best != a.min_valuation():
            bad += 1
        u = random_gl(ring, n, rng)
        # 4: GL matrices have norm one
        if u.matnorm() != NormValue.one(ring):
            bad += 1
        # 5: a matrix strictly within 1 of a GL matrix is GL
        pert = UMatrix.random(ring, n, rng)
        shifted = UMatrix(ring, n, tuple(tuple(ring.shift_up(x, 1) for x in row)
                                         for row in pert.rows))
        if not (u + shifted).is_gl():
            bad += 1
        # 6: two-sided GL-invariance of the norm
        if (u @ a).matnorm() != a.matnorm() or (a @ u).matnorm() != a.matnorm():
            bad += 1
        # and the inverse identity
        if (u @ u.inv()).rows != ident.rows:
            bad += 1
    return bad


def congruence_laws(ring: RingSpec, n: int, samples: int, rng: random.Random) -> int:
    """Coordinates of the congruence filtration: bijection and group law."""
    bad = 0
    K = ring.precision
    for _ in range(samples):
        k = rng.randrange(1, max(2, K // 2))
        m = UMatrix.random(ring, n, rng)
        a = m.congruence_lift(k)
        back = a.congruence_coords(k)
        red = K - k
        if back.reduce(red).rows != m.reduce(red).rows:
            bad += 1
        m2 = UMatrix.random(ring, n, rng)
        b = m2.congruence_lift(k)
        lhs = (a @ b).congruence_coords(k)
        rhs = back + b.congruence_coords(k)
        if (lhs - rhs).reduce(min(k, red)).rows != \
                UMatrix.zero(ring.with_precision(min(k, red)), n).rows:
            bad += 1
    return bad


def monomial_laws(ring: RingSpec, samples: int, rng: random.Random) -> int:
    """Exact commutation and the distance bound for the commutant repair.

    Sampled over full-cycle monomial matrices, where every orbit's scalar
    product is trivial and the stated bound is attainable.
    """
    bad = 0
    for _ in range(samples):
        n = rng.randrange(2, 7)
        start = list(range(n))
        rng.shuffle(start)
        perm = [0] * n
        for a, b in zip(start, start[1:] + start[:1]):
            perm[a] = b
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][perm[i]] = ring.random_unit(rng)
        p_mat = UMatrix(ring, n, tuple(tuple(r) for r in rows))
        d_mat = UMatrix.random(ring, n, rng)
        try:
            out = nearest_monomial_commutant(p_mat, d_mat)
        except MonomialBoundExceeded:
            bad += 1
            continue
        if ((p_mat @ out) - (out @ p_mat)).min_valuation() < ring.precision:
            bad += 1
        eps = ((p_mat @ d_mat) - (d_mat @ p_mat)).matnorm()
        if not (d_mat - out).matnorm() <= eps:
            bad += 1
    return bad


def wreath_axioms(samples: int, rng: random.Random) -> int:
    """Group axioms in an iterated wreath product, on random elements."""
    bad = 0
    inner = WreathGroup(CyclicGroup(4), 4)
    outer = WreathGroup(inner, 3)

    def rand_inner():
        return (tuple(rng.randrange(4) for _ in range(4)), rng.randrange(4))

    def rand_outer():
        return (tuple(rand_inner() for _ in range(3)), rng.randrange(3))

    e = outer.identity()
    for _ in range(samples):
        g, h, k = rand_outer(), rand_outer(), rand_outer()
        if outer.mul(outer.mul(g, h), k) != outer.mul(g, outer.mul(h, k)):
            bad += 1
        if outer.mul(g, outer.inv(g)) != e or outer.mul(outer.inv(g), g) != e:
            bad += 1
        if outer.mul(g, e) != g or outer.mul(e, g) != g:
            bad += 1
    return bad


SUITES = ["ring-laws", "norm-laws", "congruence", "monomial", "wreath-axioms"]


def run_suite(suite: str, samples: int, seed: int) -> Tuple[bool, dict]:
    rng = random.Random(seed)
    violations = 0
    configs = []
    if suite == "ring-laws":
        # fpx at p = 257 and 1021: the packed products with the widest slot sums
        for mode, p, K in (("zp", 2, 8), ("zp", 3, 6), ("fpx", 2, 8), ("fpx", 5, 4),
                           ("fpx", 257, 20), ("fpx", 1021, 32)):
            ring = RingSpec(mode, p, K)
            v = ring_laws(ring, samples, rng)
            violations += v
            configs.append({"ring": ring.describe(), "violations": v})
    elif suite == "norm-laws":
        for mode, p, K, n in (("zp", 2, 8, 3), ("zp", 3, 6, 2), ("fpx", 2, 8, 3)):
            ring = RingSpec(mode, p, K)
            v = norm_laws(ring, n, samples, rng)
            violations += v
            configs.append({"ring": ring.describe(), "n": n, "violations": v})
    elif suite == "congruence":
        for mode, p, K, n in (("zp", 2, 8, 2), ("fpx", 3, 6, 2)):
            ring = RingSpec(mode, p, K)
            v = congruence_laws(ring, n, samples, rng)
            violations += v
            configs.append({"ring": ring.describe(), "n": n, "violations": v})
    elif suite == "monomial":
        for mode, p, K in (("zp", 2, 6), ("zp", 5, 4)):
            ring = RingSpec(mode, p, K)
            v = monomial_laws(ring, samples, rng)
            violations += v
            configs.append({"ring": ring.describe(), "violations": v})
    elif suite == "wreath-axioms":
        v = wreath_axioms(samples, rng)
        violations += v
        configs.append({"violations": v})
    else:
        raise ValueError(f"unknown suite {suite}")
    report = {
        "schema_version": 1,
        "kind": "proptest_report",
        "suite": suite,
        "samples": samples,
        "seed": seed,
        "violations": violations,
        "configs": configs,
    }
    return violations == 0, report
