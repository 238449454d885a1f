import random

import pytest

from ultrastab.local_ring import NormValue, RingSpec
from ultrastab.presentations import ApproxRep, Presentation, closure_of_matrices
from ultrastab.homrepair import (
    CharPUnsupported,
    GogEdge,
    GogVertex,
    GraphOfGroups,
    HypothesisViolated,
    LedgerStep,
    _avg_candidate,
    _cocycle_rows,
    _section_defect_val,
    align_homomorphisms,
    graph_repair,
    repair_finite_image,
)
from ultrastab.ultranorm_linalg import UMatrix

from conftest import random_gl, shifted_random

ORDER3 = [[0, -1], [1, -1]]


def _perturbed_z3_rep(ring, k, rng):
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    m = UMatrix.from_int_rows(ring, ORDER3)
    return ApproxRep(pres, ring, 2, [m + shifted_random(ring, 2, rng, k)])


def _repair_checked(rep):
    """repair_finite_image plus the contract of its first lifting step.

    The step at defect level k with p-part l spends level k - l and
    reaches level >= 2(k - l) (capped at K); the result is exact and at
    most p^l * defect from the input.
    """
    fixed, ledger = repair_finite_image(rep)
    k, l, K = ledger.initial_defect_val, ledger.p_part, rep.ring.precision
    assert k == rep.defect().valuation
    step = ledger.steps[0]
    assert step.distance_spent_val == k - l
    assert step.defect_val_after >= min(2 * (k - l), K)
    assert fixed.defect().saturated and ledger.verified
    assert rep.rep_dist(fixed) <= NormValue.from_valuation(rep.ring, k - l)
    return fixed, ledger


def test_cocycle_construction(rng):
    # order-3 image at p = 2: the cocycle is solved by averaging, no level lost
    ring = RingSpec("zp", 2, 8)
    rep = _perturbed_z3_rep(ring, 3, rng)
    _, ledger = _repair_checked(rep)
    assert ledger.p_part == 0
    assert ledger.image_order == 3
    assert all(s.method == "averaging" for s in ledger.steps)


def test_cocycle_zero_for_exact_rep():
    # an exact representation has a zero cocycle: no step runs, nothing moves
    ring = RingSpec("zp", 2, 8)
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    rep = ApproxRep(pres, ring, 2, [UMatrix.from_int_rows(ring, ORDER3)])
    fixed, ledger = repair_finite_image(rep)
    assert fixed.images[0].rows == rep.images[0].rows
    assert ledger.steps == []
    assert ledger.final_distance_val == 8
    assert ledger.image_order == 3


def test_average_solve_precision_loss(rng):
    # |C| = 3 at p = 2: unit order, no precision spent
    ring = RingSpec("zp", 2, 8)
    _, ledger = _repair_checked(_perturbed_z3_rep(ring, 3, rng))
    assert ledger.steps[0].method == "averaging"
    assert ledger.steps[0].distance_spent_val == ledger.initial_defect_val
    # |C| = 2 at p = 2: the cocycle is taken at level k - l, one digit spent
    ring10 = RingSpec("zp", 2, 10)
    pres = Presentation.make(["s"], [["s", "s"]])
    rep2 = ApproxRep(pres, ring10, 1,
                     [UMatrix.from_int_rows(ring10, [[-1 + 2 ** 4]])])
    _, ledger2 = _repair_checked(rep2)
    assert ledger2.p_part == 1 and ledger2.image_order == 2
    assert ledger2.steps[0] == LedgerStep(8, 4, "averaging")


def test_lift_step_contract(rng):
    ring = RingSpec("zp", 2, 8)
    for k in (3, 4, 5):
        _repair_checked(_perturbed_z3_rep(ring, k, rng))


def test_lift_step_gl1_linear_example():
    # order-2 image at defect level 5: one step reaches level 8 = K, moving 2^-4
    ring = RingSpec("zp", 2, 8)
    pres = Presentation.make(["s"], [["s", "s"]])
    rep = ApproxRep(pres, ring, 1, [UMatrix.from_int_rows(ring, [[-1 + 2 ** 4]])])
    fixed, ledger = _repair_checked(rep)
    assert ledger.p_part == 1
    assert ledger.steps == [LedgerStep(8, 4, "averaging")]
    assert rep.rep_dist(fixed).valuation == 4
    assert fixed.images[0].rows == ((-1 + 2 ** 7,),)  # an exact involution mod 2^8


def test_repair_optimal_pi_prime(rng):
    ring = RingSpec("zp", 2, 8)
    for k in (3, 4, 5, 6):
        rep = _perturbed_z3_rep(ring, k, rng)
        d = rep.defect()
        fixed, ledger = repair_finite_image(rep)
        assert fixed.defect().saturated
        dist = rep.rep_dist(fixed)
        assert dist <= d  # optimal estimate
        assert ledger.p_part == 0
        assert ledger.verified
        assert 3 % ledger.image_order == 0
        # repaired image really has order dividing 3 at full precision
        cube = fixed.images[0].pow_int(3)
        assert cube.rows == UMatrix.identity(ring, 2).rows


def test_repair_linear_estimate_sharp():
    ring = RingSpec("zp", 2, 10)
    pres = Presentation.make(["s"], [["s", "s"]])
    for k in range(3, 9):
        rep = ApproxRep(pres, ring, 1,
                        [UMatrix.from_int_rows(ring, [[-1 + 2 ** k]])])
        assert rep.defect().valuation == k + 1
        fixed, ledger = repair_finite_image(rep)
        assert fixed.defect().saturated
        assert rep.rep_dist(fixed).valuation == k  # ratio dist/def = 2 exactly
        assert ledger.p_part == 1
        assert ledger.final_distance_bound_val == k


def test_repair_zero_defect_returns_unchanged():
    ring = RingSpec("zp", 3, 5)
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    rep = ApproxRep(pres, ring, 2, [UMatrix.from_int_rows(ring, ORDER3)])
    fixed, ledger = repair_finite_image(rep)
    assert all(a.rows == b.rows for a, b in zip(rep.images, fixed.images))
    assert ledger.steps == []


def test_repair_hypothesis_violated():
    # 3 has order 4 mod 16 and |3^4 - 1| = 2^-4, so k = 4 = 2l exactly
    ring = RingSpec("zp", 2, 6)
    pres = Presentation.make(["s"], [["s", "s", "s", "s"]])
    rep = ApproxRep(pres, ring, 1, [UMatrix.from_int_rows(ring, [[3]])])
    assert rep.defect().valuation == 4
    with pytest.raises(HypothesisViolated):
        repair_finite_image(rep)


def test_repair_equal_char_p_part_rejected(rng):
    ring = RingSpec("fpx", 2, 8)
    pres = Presentation.make(["s"], [["s", "s"]])
    x = ring.from_coeffs([1, 0, 0, 1])  # 1 + X^3, an order-2-ish image mod X^3
    rep = ApproxRep(pres, ring, 1, [UMatrix(ring, 1, ((x,),))])
    with pytest.raises(CharPUnsupported):
        repair_finite_image(rep)


def test_repair_random_z2_gl3(rng):
    ring = RingSpec("zp", 2, 10)
    pres = Presentation.make(["s"], [["s", "s"]])
    base_diag = UMatrix.from_int_rows(ring, [[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    done = 0
    while done < 15:
        u = random_gl(ring, 3, rng)
        s = u @ base_diag @ u.inv()
        k = rng.randrange(3, 8)
        rep = ApproxRep(pres, ring, 3, [s + shifted_random(ring, 3, rng, k)])
        d = rep.defect()
        if d.saturated or d.valuation <= 2:
            continue
        fixed, ledger = repair_finite_image(rep)
        assert fixed.defect().saturated
        dist = rep.rep_dist(fixed)
        assert dist.valuation + 1 >= d.valuation  # dist <= 2 * defect
        done += 1


def test_conjugator_alignment(rng):
    # two conjugate order-3 subgroups of GL_2(Z/2^6) agreeing mod 2^3
    ring = RingSpec("zp", 2, 6)
    m = UMatrix.from_int_rows(ring, ORDER3)
    t_small = shifted_random(ring, 2, rng, 3).congruence_lift(3)
    m2 = t_small @ m @ t_small.inv()
    C = closure_of_matrices([m.reduce(3)], 3)
    psi1 = [UMatrix.identity(ring, 2), m, m @ m]
    psi1 = [psi1[C.index_of(x.reduce(3))] for x in psi1]  # align indexing
    # build element-indexed homs
    def hom_from(mat):
        elems = [UMatrix.identity(ring, 2), mat, mat @ mat]
        out = [None] * 3
        for e in elems:
            out[C.index_of(e.reduce(3))] = e
        return out
    h1, h2 = hom_from(m), hom_from(m2)
    t, steps = align_homomorphisms(h1, h2, C)
    assert (t - UMatrix.identity(ring, 2)).min_valuation() >= 3
    tinv = t.inv()
    for a, b in zip(h1, h2):
        assert (t @ a @ tinv).rows == b.rows


def _bs23_gog():
    return GraphOfGroups(
        vertices=(GogVertex("v", ("s",), ()),),
        edges=(GogEdge("v", "v", ("s", "s", "s"), ("s", "s"), "t", False),),
    )


def _perm_matrix(ring, images):
    n = len(images)
    rows = [[0] * n for _ in range(n)]
    for j, i in enumerate(images):
        rows[i][j] = 1
    return UMatrix.from_int_rows(ring, rows)


def test_graph_repair_bs23(rng):
    gog = _bs23_gog()
    pres = gog.standard_presentation()
    for p in (3, 2):
        ring = RingSpec("zp", p, 8)
        P = _perm_matrix(ring, [(j + 1) % 5 for j in range(5)])
        Q = _perm_matrix(ring, [(4 * j) % 5 for j in range(5)])
        assert ApproxRep(pres, ring, 5, [P, Q]).defect().saturated
        for k in (3, 4, 5):
            imgs = [P + shifted_random(ring, 5, rng, k),
                    Q + shifted_random(ring, 5, rng, k)]
            rep = ApproxRep(pres, ring, 5, imgs)
            d = rep.defect()
            assert not d.saturated and d.valuation >= k
            fixed, ledger = graph_repair(gog, rep)
            assert fixed.defect().saturated
            # the relator t s^3 t^-1 s^-2 holds exactly
            relator = pres.relators[0]
            assert fixed.eval_word(relator).rows == UMatrix.identity(ring, 5).rows
            dist = rep.rep_dist(fixed)
            slack = 1 if p == 2 else 0
            assert dist.valuation >= d.valuation - slack
            assert ledger.verified


def test_graph_repair_free_product(rng):
    # Z/3 * Z/3 over p = 2: tree edge, trivial edge group words
    gog = GraphOfGroups(
        vertices=(GogVertex("u", ("a",), (("a", "a", "a"),)),
                  GogVertex("w", ("b",), (("b", "b", "b"),))),
        edges=(GogEdge("u", "w", (), (), "t", True),),
    )
    pres = gog.standard_presentation()
    ring = RingSpec("zp", 2, 8)
    m = UMatrix.from_int_rows(ring, ORDER3)
    k = 3
    imgs = [m + shifted_random(ring, 2, rng, k),
            (m @ m) + shifted_random(ring, 2, rng, k),
            UMatrix.identity(ring, 2) + shifted_random(ring, 2, rng, k)]
    rep = ApproxRep(pres, ring, 2, imgs)
    d = rep.defect()
    assert not d.saturated
    fixed, ledger = graph_repair(gog, rep)
    assert fixed.defect().saturated
    assert rep.rep_dist(fixed) <= d  # both vertices are p'-groups: optimal


def test_graph_repair_presentation_mismatch(rng):
    gog = _bs23_gog()
    ring = RingSpec("zp", 3, 8)
    pres = Presentation.make(["s", "t"], [["s"]])
    rep = ApproxRep(pres, ring, 2, [UMatrix.identity(ring, 2)] * 2)
    with pytest.raises(Exception):
        graph_repair(gog, rep)


def test_gog_json_roundtrip():
    gog = _bs23_gog()
    rt = GraphOfGroups.from_json(gog.to_json())
    assert rt == gog


def _all_pairs_defect_val(sigma, C):
    """Reference: min over all pairs of val(sigma(c) sigma(d) - sigma(cd))."""
    best = sigma[0].ring.precision
    for c in range(C.order):
        for d in range(C.order):
            v = ((sigma[c] @ sigma[d]) - sigma[C.product(c, d)]).min_valuation()
            best = min(best, v)
    return best


S3_D4_PERMS = [
    [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
    [[[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
     [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]],
]


def _random_section(C, ring, rng, low):
    """sigma(e) = I; every other element lifted with noise of its own level >= low."""
    n = C.elements[0].n
    return [UMatrix.identity(ring, n)] + [
        e.lift_to(ring) + shifted_random(ring, n, rng, rng.randrange(low, ring.precision + 1))
        for e in C.elements[1:]]


def test_generator_rows_give_section_defect(rng):
    seen = set()
    for ring in (RingSpec("zp", 2, 8), RingSpec("zp", 3, 6), RingSpec("fpx", 5, 6)):
        K = ring.precision
        for perms in S3_D4_PERMS:
            gens = [UMatrix.from_int_rows(ring, m) for m in perms]
            C = closure_of_matrices([g.reduce(2) for g in gens], 2)
            for _ in range(6):
                sigma = _random_section(C, ring, rng, rng.randrange(1, K))
                got = _section_defect_val(sigma, C)
                assert got == _all_pairs_defect_val(sigma, C)
                seen.add(got)
            # exact along the rows of one generator class s, not along the others:
            # sigma(d) = rho(d) (I + w^L E), E constant on each coset <s> d
            n = len(perms[0])
            for s in C.generator_indices:
                E = [None] * C.order
                for d in range(C.order):
                    if E[d] is None:
                        twist = UMatrix.identity(ring, n)
                        if d != 0:
                            twist = twist + shifted_random(ring, n, rng, 3)
                        c = d
                        while E[c] is None:
                            E[c] = twist
                            c = C.product(s, c)
                sigma = [e.lift_to(ring) @ E[d] for d, e in enumerate(C.elements)]
                assert _section_defect_val(sigma, C) == _all_pairs_defect_val(sigma, C) < K
    assert len(seen) > 3  # the check met several distinct levels


def _full_average(sigma, C, level, mod_exp):
    """Reference: c(g) = (sum over all h of z(g, h)) / |C|, None when obstructed."""
    sigma_inv = [m.inv() for m in sigma]
    ring_q = sigma[0].ring.with_precision(mod_exp)
    minv = ring_q.inv(ring_q.from_int(C.unit_part))
    out = []
    for g in range(C.order):
        b = UMatrix.zero(ring_q, sigma[0].n)
        for h in range(C.order):
            z = sigma[g] @ sigma[h] @ sigma_inv[C.product(g, h)]
            b = b + z.congruence_coords(level).reduce(mod_exp)
        t = b.scale(minv)
        if t.min_valuation() < C.p_part:
            return None
        out.append(UMatrix(ring_q, t.n, tuple(tuple(ring_q.shift_down(x, C.p_part)
                                                    for x in r) for r in t.rows)))
    return out


def test_generator_rows_give_full_average(rng):
    # on random sections the averaged cochain built from the generator rows is
    # the average of the full N^2 cocycle table, at every element
    obstructed = 0
    for ring, k in ((RingSpec("zp", 5, 8), 3), (RingSpec("fpx", 5, 8), 3),
                    (RingSpec("zp", 2, 10), 5), (RingSpec("zp", 3, 12), 5)):
        for perms in S3_D4_PERMS:
            C = closure_of_matrices([UMatrix.from_int_rows(ring, m).reduce(k)
                                     for m in perms], k)
            j = k - C.p_part
            mod_exp = min(2 * j, ring.precision) - j
            for _ in range(3):
                sigma = _random_section(C, ring, rng, k)
                sigma_inv = [m.inv() for m in sigma]
                got = _avg_candidate(_cocycle_rows(sigma, sigma_inv, C, j, mod_exp))
                want = _full_average(sigma, C, j, mod_exp)
                if want is None:
                    obstructed += 1
                    assert got is None
                else:
                    assert [m.rows for m in got] == [m.rows for m in want]
    assert 0 < obstructed < 24  # both outcomes of the p-part division were met
