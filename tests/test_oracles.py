"""Brute-force cross-checks of the repair engine at desk scale.

These tests enumerate every exact homomorphism in a small ring and
compare the repair output against the true nearest one, independently of
all the cocycle machinery.
"""

import itertools
import random

import pytest

from ultrastab.homrepair import GogEdge, GogVertex, GraphOfGroups, graph_repair, repair_finite_image
from ultrastab.local_ring import NormValue, RingSpec
from ultrastab.presentations import ApproxRep, Presentation
from ultrastab.proptests import random_gl
from ultrastab.ultranorm_linalg import UMatrix, solve_linear

from conftest import matrix_power, shifted_random


def test_repair_matches_bruteforce_gl1():
    # all order-dividing-3 units mod 2^6 are the exact homs of <s | s^3>
    ring = RingSpec("zp", 2, 6)
    M = 2 ** 6
    homs = [u for u in range(1, M, 2) if pow(u, 3, M) == 1]
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    rng = random.Random(42)
    for _ in range(40):
        u = rng.choice(homs)
        k = rng.randrange(2, 5)
        img = (u + (rng.randrange(1, M >> k) << k)) % M
        if img % 2 == 0:
            continue
        rep = ApproxRep(pres, ring, 1, [UMatrix(ring, 1, ((img,),))])
        d = rep.defect()
        if d.saturated:
            continue
        fixed, _ = repair_finite_image(rep)
        got = rep.rep_dist(fixed)
        # the true distance to the nearest exact homomorphism, by enumeration
        best = min(NormValue.from_valuation(ring, ring.val(ring.sub(img, h)))
                   for h in homs)
        assert best <= got <= d


def test_repair_matches_bruteforce_gl2():
    # enumerate every A in GL_2(Z/8) with A^3 = I: the exact homs of Z/3
    ring = RingSpec("zp", 2, 3)
    ident = UMatrix.identity(ring, 2)
    cube_roots = []
    for entries in itertools.product(range(8), repeat=4):
        m = UMatrix(ring, 2, ((entries[0], entries[1]), (entries[2], entries[3])))
        if not m.is_gl():
            continue
        if (m @ m @ m).rows == ident.rows:
            cube_roots.append(m)
    assert len(cube_roots) > 1
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    base = UMatrix.from_int_rows(ring, [[0, -1], [1, -1]])
    rng = random.Random(7)
    checked = 0
    while checked < 25:
        k = rng.randrange(1, 3)
        rep_img = base + shifted_random(ring, 2, rng, k)
        rep = ApproxRep(pres, ring, 2, [rep_img])
        d = rep.defect()
        if d.saturated or d.valuation < 1:
            continue
        fixed, _ = repair_finite_image(rep)
        assert fixed.defect().saturated
        got = rep.rep_dist(fixed)
        # independent existence check: brute force finds a homomorphism
        # within the defect, and the repair lands between the true nearest
        # distance and the certified bound
        best = min(rep_img.dist(h) for h in cube_roots)
        assert best <= d
        assert best <= got <= d
        checked += 1


def test_repair_equal_char_pi_prime(rng):
    # order-3 image over F_2[X]/(X^8): equal characteristic, p' image
    ring = RingSpec("fpx", 2, 8)
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    base = UMatrix.from_int_rows(ring, [[0, 1], [1, 1]])  # -1 = 1 in char 2
    rep0 = ApproxRep(pres, ring, 2, [base])
    assert rep0.defect().saturated
    for k in (2, 3, 4):
        rep = ApproxRep(pres, ring, 2, [base + shifted_random(ring, 2, rng, k)])
        d = rep.defect()
        if d.saturated:
            continue
        fixed, ledger = repair_finite_image(rep)
        assert fixed.defect().saturated
        assert rep.rep_dist(fixed) <= d
        assert ledger.p_part == 0


def test_graph_repair_amalgamated_cyclics(rng):
    # Z/6 *_{Z/3} Z/3 over p = 5: tree edge with nontrivial words a^2 ~ b
    gog = GraphOfGroups(
        vertices=(GogVertex("u", ("a",), (("a",) * 6,)),
                  GogVertex("w", ("b",), (("b",) * 3,))),
        edges=(GogEdge("u", "w", ("a", "a"), ("b",), "t", True),),
    )
    pres = gog.standard_presentation()
    ring = RingSpec("zp", 5, 6)
    # a -> companion of X^2+X+1 times -I has order 6; b -> its square
    m3 = UMatrix.from_int_rows(ring, [[0, -1], [1, -1]])
    m6 = -m3
    assert matrix_power(m6, 6).rows == UMatrix.identity(ring, 2).rows
    b_img = m6 @ m6
    rep0 = ApproxRep(pres, ring, 2, [m6, b_img, UMatrix.identity(ring, 2)])
    assert rep0.defect().saturated
    for k in (2, 3):
        imgs = [m6 + shifted_random(ring, 2, rng, k),
                b_img + shifted_random(ring, 2, rng, k),
                UMatrix.identity(ring, 2) + shifted_random(ring, 2, rng, k)]
        rep = ApproxRep(pres, ring, 2, imgs)
        d = rep.defect()
        if d.saturated:
            continue
        fixed, ledger = graph_repair(gog, rep)
        assert fixed.defect().saturated
        assert rep.rep_dist(fixed) <= d  # everything is a 5'-group: optimal
        # the amalgamation really holds: a^2 = b exactly
        a_sq = fixed.images[0] @ fixed.images[0]
        assert a_sq.rows == fixed.images[1].rows


def test_hdist_shortcut_matches_full_max():
    # the certified distance |(1+x) - u| equals max_k |(1+x)^k - u^k|
    ring = RingSpec("zp", 3, 6)
    M = 3 ** 6
    from ultrastab.witnesses import roots_of_unity
    units = roots_of_unity(ring, 9)
    g = (1 + 3) % M
    for u in units:
        direct = max(
            ring.val(ring.sub(pow(g, k, M), pow(u, k, M))) for k in range(9)
        )
        shortcut = ring.val(ring.sub(g, u))
        # max distance = min valuation
        direct_min = min(
            (ring.val(ring.sub(pow(g, k, M), pow(u, k, M))) for k in range(1, 9)),
        )
        assert direct_min == shortcut


def test_solve_linear_rectangular(rng):
    ring = RingSpec("zp", 2, 4)
    for _ in range(30):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[ring.random_raw(rng) for _ in range(nc)] for _ in range(nr)]
        x = [ring.random_raw(rng) for _ in range(nc)]
        b = [ring.dot(r, x) for r in rows]
        x = solve_linear(rows, b, ring)
        assert [ring.dot(r, x) for r in rows] == b


def test_wreath_matrix_map_is_group_like():
    # block images multiply exactly on the subgroup where the scalar map is
    # exact: pure permutation parts (all tuple entries zero)
    from ultrastab.witnesses import WreathMatrixMap, build_unstable_generators
    ring = RingSpec("zp", 2, 10)
    gens = build_unstable_generators(2, 1)
    wmap = WreathMatrixMap(2, 1, 2, ring)
    outer = gens.outer
    eta = gens.eta
    img = wmap.image(eta)
    acc = img
    cur = eta
    for _ in range(3):
        cur = outer.mul(cur, eta)
        acc = acc @ img
        assert acc.dist_val(wmap.image(cur)) == ring.precision
