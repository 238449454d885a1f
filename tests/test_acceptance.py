"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is the
exact integer stated here; there is no floating point anywhere.
"""

import itertools
import random
import time

import pytest

from ultrastab.aux_families import (
    FiltrationMetricSpec,
    FiltrationRep,
    TreeAutOps,
    TriangularOps,
    split_section_repair,
)
from ultrastab.char2_involutions import involution_repair
from ultrastab.gbs_criteria import check_pifree_criterion
from ultrastab.homrepair import GogEdge, GogVertex, GraphOfGroups, graph_repair, repair_finite_image
from ultrastab.local_ring import NormValue, RingSpec
from ultrastab.presentations import ApproxRep, Presentation
from ultrastab.proptests import random_gl
from ultrastab.ultranorm_linalg import UMatrix
from ultrastab.witnesses import (
    build_unstable_generators,
    commutator_witness_oracle,
    hdist_gl1_cyclic,
    make_badestimate_rep,
    make_commutator_witness,
    verify_claims,
    wreath_rep_defect_certificate,
)

from conftest import bs_graph, shifted_random


def _report(num, label, elapsed, budget):
    print(f"[criterion {num:02d}] PASS {label} ({elapsed:.2f}s / budget {budget}s)")


def test_criterion_01_norm_laws():
    """Norm-law suite: 10^4 random matrices per ring configuration, six laws."""
    t0 = time.time()
    rng = random.Random(101)
    samples = 10 ** 4
    for mode, p, K, n in (("zp", 2, 8, 3), ("zp", 3, 6, 2), ("fpx", 2, 8, 3)):
        ring = RingSpec(mode, p, K)
        one = NormValue.one(ring)
        pool = [UMatrix.random(ring, n, rng) for _ in range(samples)]
        units = [random_gl(ring, n, rng) for _ in range(256)]
        for idx, a in enumerate(pool):
            b = pool[(idx + 1) % samples]
            c = pool[(idx + 2) % samples]
            # 1: ultrametric inequality
            assert a.dist(c) <= max(a.dist(b), b.dist(c))
            # 2: submultiplicativity
            assert (a @ b).matnorm() <= a.matnorm() * b.matnorm()
            # 3: operator norm equals max column norm on basis vectors
            col_min = min(
                min((ring.val(a.rows[i][j]) for i in range(n)), default=K)
                for j in range(n)
            )
            assert col_min == a.min_valuation()
            u = units[idx % len(units)]
            # 4: GL norm one
            assert u.matnorm() == one
            # 5: perturbation of invertible stays invertible
            shifted = UMatrix(ring, n, tuple(tuple(ring.shift_up(x, 1) for x in row)
                                             for row in b.rows))
            assert (u + shifted).is_gl()
            # 6: two-sided GL invariance
            assert (u @ a).matnorm() == a.matnorm()
            assert (a @ u).matnorm() == a.matnorm()
    elapsed = time.time() - t0
    assert elapsed < 10
    _report(1, f"norm laws, 3 rings x {samples} samples, 0 violations", elapsed, 10)


def test_criterion_02_optimal_pi_prime_repair():
    """100 level-k perturbations of the order-3 representation, optimal estimate."""
    t0 = time.time()
    rng = random.Random(102)
    ring = RingSpec("zp", 2, 8)
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    m = UMatrix.from_int_rows(ring, [[0, -1], [1, -1]])
    for trial in range(100):
        k = 3 + trial % 4
        rep = ApproxRep(pres, ring, 2, [m + shifted_random(ring, 2, rng, k)])
        d = rep.defect()
        fixed, ledger = repair_finite_image(rep)
        assert fixed.defect().saturated
        dist = rep.rep_dist(fixed)
        assert dist.valuation >= k
        assert dist <= d, "distance must not exceed defect (tolerance zero)"
        assert 3 % ledger.image_order == 0
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(2, "100 pi'-repairs, dist <= def exactly, image order | 3", elapsed, 5)


def test_criterion_03_linear_estimate_sharpness():
    """Z/2 in GL_1: ratio dist/def exactly p; plus 100 GL_3 perturbations."""
    t0 = time.time()
    ring = RingSpec("zp", 2, 10)
    pres = Presentation.make(["s"], [["s", "s"]])
    for k in range(3, 9):
        rep = ApproxRep(pres, ring, 1,
                        [UMatrix.from_int_rows(ring, [[-1 + 2 ** k]])])
        assert rep.defect().valuation == k + 1
        fixed, _ = repair_finite_image(rep)
        assert fixed.defect().saturated
        assert rep.rep_dist(fixed).valuation == k  # ratio = 2^{k+1}/2^k = p^l
    rng = random.Random(103)
    base = UMatrix.from_int_rows(ring, [[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    done = 0
    while done < 100:
        u = random_gl(ring, 3, rng)
        s = u @ base @ u.inv()
        k = rng.randrange(3, 8)
        rep = ApproxRep(pres, ring, 3, [s + shifted_random(ring, 3, rng, k)])
        d = rep.defect()
        if d.saturated or d.valuation <= 2:
            continue
        fixed, _ = repair_finite_image(rep)
        assert fixed.defect().saturated
        assert rep.rep_dist(fixed).valuation + 1 >= d.valuation  # dist <= 2 def
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(3, "GL_1 ratio = p exactly (k=3..8); 100 GL_3 repairs within 2*def",
            elapsed, 30)


def _bs23():
    gog = GraphOfGroups(
        vertices=(GogVertex("v", ("s",), ()),),
        edges=(GogEdge("v", "v", ("s", "s", "s"), ("s", "s"), "t", False),),
    )
    return gog, gog.standard_presentation()


def _perm_matrix(ring, images):
    n = len(images)
    rows = [[0] * n for _ in range(n)]
    for j, i in enumerate(images):
        rows[i][j] = 1
    return UMatrix.from_int_rows(ring, rows)


def test_criterion_04_graph_repair_bs23():
    """Perturbed 5-dimensional permutation representation of BS(2, 3)."""
    t0 = time.time()
    gog, pres = _bs23()
    rng = random.Random(104)
    relator = pres.relators[0]
    for p, slack in ((3, 0), (2, 1)):
        ring = RingSpec("zp", p, 8)
        P = _perm_matrix(ring, [(j + 1) % 5 for j in range(5)])
        Q = _perm_matrix(ring, [(4 * j) % 5 for j in range(5)])
        for k in (3, 4, 5):
            rep = ApproxRep(pres, ring, 5,
                            [P + shifted_random(ring, 5, rng, k),
                             Q + shifted_random(ring, 5, rng, k)])
            d = rep.defect()
            assert not d.saturated and d.valuation >= k
            fixed, _ = graph_repair(gog, rep)
            assert fixed.eval_word(relator).rows == UMatrix.identity(ring, 5).rows
            assert fixed.defect().saturated
            assert rep.rep_dist(fixed).valuation >= d.valuation - slack
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(4, "BS(2,3) repairs exact at p=3 (<=def) and p=2 (<=2*def)", elapsed, 30)


def test_criterion_05_involution_quadratic():
    """100 random involution repairs at K = 10 plus the exhaustive K = 2 oracle."""
    t0 = time.time()
    ring = RingSpec("fpx", 2, 10)
    rng = random.Random(105)

    def swap_form(n, l):
        rows = [[0] * n for _ in range(n)]
        for i in range(l):
            rows[i][l + i] = 1
            rows[l + i][i] = 1
        for i in range(2 * l, n):
            rows[i][i] = 1
        return UMatrix.from_int_rows(ring, rows)

    done = 0
    while done < 100:
        n = rng.randrange(1, 5)
        u = random_gl(ring, n, rng)
        s = u @ swap_form(n, rng.randrange(0, n // 2 + 1)) @ u.inv()
        k = rng.randrange(1, 9)
        a = s + shifted_random(ring, n, rng, k)
        if not a.is_gl():
            continue
        ident = UMatrix.identity(ring, n)
        dval = ((a @ a) - ident).min_valuation()
        if dval < 1 or dval >= 10:
            continue
        out = involution_repair(a)
        assert ((out @ out) - ident).min_valuation() >= 10
        assert 2 * (a - out).min_valuation() >= dval
        done += 1

    # exhaustive oracle at n = 2, K = 2 over all 2^8 matrices
    ring2 = RingSpec("fpx", 2, 2)
    ident2 = UMatrix.identity(ring2, 2)
    elems = list(ring2.iter_all())
    all_mats = [UMatrix(ring2, 2, ((e0, e1), (e2, e3)))
                for e0, e1, e2, e3 in itertools.product(elems, repeat=4)]
    assert len(all_mats) == 256
    involutions = [m for m in all_mats if (m @ m).rows == ident2.rows]
    eligible = 0
    for m in all_mats:
        dval = ((m @ m) - ident2).min_valuation()
        if dval < 1 or not m.is_gl():
            continue
        out = involution_repair(m)
        d_rep = (m - out).min_valuation()
        d_best = max((m - w).min_valuation() for w in involutions)
        assert 2 * d_rep >= dval
        assert d_best >= d_rep
        eligible += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(5, f"100 repairs, A'^2 = I and dist^2 <= def; {eligible} exhaustive checks",
            elapsed, 60)


def test_criterion_06_witness_suite():
    """Defect valuation exactly i+1 against the LTE oracle; Hdist constant 3^-1."""
    t0 = time.time()
    M = 3 ** 12
    for i in range(8, 0, -1):
        rep = make_badestimate_rep(3, i, 3, 12)
        # independent integer oracle for the defect
        v, m = 0, (pow(4, 3 ** i, M) - 1) % M
        while m and m % 3 == 0:
            m //= 3
            v += 1
        assert rep.defect().valuation == v == i + 1
        hd = hdist_gl1_cyclic(rep)
        assert not hd.value.saturated and hd.value.exponent == 1
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(6, "defect val = i+1 (LTE oracle), truncated Hdist = 3^-1 for i=1..8",
            elapsed, 5)


def test_criterion_07_wreath_construction():
    """Claims at max_i = 3; exact defect over the full 16384-element group."""
    t0 = time.time()
    report = verify_claims(3, p=2)
    assert report.passed
    cert = wreath_rep_defect_certificate(build_unstable_generators(2, 1), 2, 12)
    assert cert.exact and cert.group_order == 16384
    rep1 = make_badestimate_rep(2, 1, 2, 12)
    assert cert.defect_val == rep1.defect().valuation
    assert cert.hdist_bound.value <= NormValue(2, 12, 2, False)  # >= 2^-2 as a bound
    assert cert.hdist_bound.value.exponent == 2
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(7, "claims(3) verified; wreath defect = badestimate defect over 16384 "
               "elements; delta-restriction Hdist bound 2^-2", elapsed, 120)


def test_criterion_08_commutator_oracle():
    """Exhaustive commuting-pair search in GL_2(Z/8)."""
    t0 = time.time()
    ring = RingSpec("zp", 2, 3)
    A, B = make_commutator_witness(ring, 2, 1)
    assert ((A @ B) - (B @ A)).matnorm() == NormValue.from_valuation(ring, 2)
    res = commutator_witness_oracle(ring, 2, 1)
    assert res.value == NormValue.from_valuation(ring, 1)  # nearest pair at 2^-1
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(8, f"nearest commuting pair at 2^-1 >= 2^-1 while ||AB-BA|| = 2^-2 "
               f"({res.pairs_scanned} pairs scanned)", elapsed, 300)


def test_criterion_09_gbs_table():
    """Classification table against the divisibility conditions."""
    t0 = time.time()
    table = {
        (2, 3, 2): (True, True),
        (2, 3, 3): (True, True),
        (2, 3, 5): (False, False),
        (4, 6, 2): (False, True),
        (2, 2, 2): (False, False),
        (3, 6, 3): (False, False),
    }
    for (m, n, p), (want_pi, want_vp) in table.items():
        divides_exactly_one = (m % p == 0) != (n % p == 0)

        def nu(x):
            v = 0
            while x % p == 0:
                x //= p
                v += 1
            return v

        assert want_pi == divides_exactly_one
        assert want_vp == (nu(m) != nu(n))
        r = check_pifree_criterion(bs_graph(m, n), p)
        assert r.pifree.met == want_pi
        assert r.vpfree.met == want_vp
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(9, "6-entry BS classification matches both arithmetic conditions",
            elapsed, 5)


def test_criterion_10_split_section():
    """Random defect-eps_k representations into T_4(Z/4) and binary depth-4 trees."""
    t0 = time.time()
    rng = random.Random(110)
    pres = Presentation.make(["a", "b"], [["a", "b", "a^-1", "b^-1"]])

    spec_tri = FiltrationMetricSpec(kind="triangular", modulus=4, dimension=4)
    ops = TriangularOps(4, 4)
    done = 0
    while done < 20:
        rows = [[0] * 4 for _ in range(4)]
        for i in range(4):
            rows[i][i] = rng.choice([1, 3])
            for j in range(i + 1, 4):
                rows[i][j] = rng.randrange(4)
        u = tuple(tuple(r) for r in rows)
        a, b = u, ops.mul(u, u)
        k = rng.randrange(1, 4)
        bp = [list(r) for r in b]
        j = rng.randrange(k, 4)
        i = rng.randrange(0, j + 1)
        bp[i][j] = (bp[i][j] + 2) % 4
        rep = FiltrationRep(pres, spec_tri, [a, tuple(tuple(r) for r in bp)])
        d = rep.defect()
        if d.below_finest or d.level == 0:
            continue
        fixed, moved = split_section_repair(rep)
        assert fixed.defect().below_finest  # exact relator satisfaction
        assert moved.below_finest or moved.value <= d.value
        done += 1

    spec_tree = FiltrationMetricSpec(kind="tree", alphabet=2, depth=4)
    tops = TreeAutOps(2, 4)

    def rand_aut(d=4):
        if d == 0:
            return ()
        return (tuple(rng.sample(range(2), 2)),
                tuple(rand_aut(d - 1) for _ in range(2)))

    def perturb(x, depth):
        if x == ():
            return x
        perm, children = x
        if depth == 0:
            return (tuple(reversed(perm)), children)
        kids = list(children)
        idx = rng.randrange(2)
        kids[idx] = perturb(kids[idx], depth - 1)
        return (perm, tuple(kids))

    done = 0
    while done < 20:
        g = rand_aut()
        k = rng.randrange(1, 4)
        rep = FiltrationRep(pres, spec_tree, [g, perturb(tops.mul(g, g), k)])
        d = rep.defect()
        if d.below_finest or d.level == 0:
            continue
        assert d.level >= k
        fixed, moved = split_section_repair(rep)
        assert fixed.defect().below_finest
        assert moved.below_finest or moved.value <= d.value
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(10, "40 split-section repairs, distance <= eps_k with exact relators",
            elapsed, 5)
