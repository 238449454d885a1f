import hashlib
import itertools
import json
import random
import sys
from collections import Counter, namedtuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ultrastab import homrepair, local_ring
from ultrastab.local_ring import NormValue, RingSpec
from ultrastab.presentations import (
    ApproxRep,
    CapExceeded,
    DefectTooLarge,
    Presentation,
    PresentationError,
    Word,
    closure_of_matrices,
    enumerate_cosets,
)
from ultrastab.homrepair import (
    CharPUnsupported,
    GogEdge,
    GogVertex,
    GraphOfGroups,
    HypothesisViolated,
    LedgerStep,
    RepairError,
    _averaging_weights,
    _conj_block,
    _fox_solve,
    _image,
    _lift_step,
    _relator_list,
    _relator_values,
    _row_sums,
    _tree_section,
    align_homomorphisms,
    graph_repair,
    repair_finite_image,
)
from ultrastab.ultranorm_linalg import UMatrix, Unsolvable, solve_linear

from conftest import (
    class_product,
    matrix_power,
    random_gl,
    random_matrix,
    shifted_random,
    zero_matrix,
)

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
    # |C| = 2 at p = 2: the Fox solve corrects at level k - l, one digit spent
    ring10 = RingSpec("zp", 2, 10)
    pres = Presentation.make(["s"], [["s", "s"]])
    rep2 = ApproxRep(pres, ring10, 1,
                     [UMatrix.from_int_rows(ring10, [[-1 + 2 ** 4]])])
    _, ledger2 = _repair_checked(rep2)
    assert ledger2.p_part == 1 and ledger2.image_order == 2
    assert ledger2.steps[0] == LedgerStep(8, 4, "linear-solve")


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
    assert ledger.steps == [LedgerStep(8, 4, "linear-solve")]
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
        cube = matrix_power(fixed.images[0], 3)
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


def test_repair_defect_too_large():
    # s^3 = [[1, 3], [0, 1]] is not 1 mod 2: the defect is 1, level 0
    ring = RingSpec("zp", 2, 6)
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    rep = ApproxRep(pres, ring, 2, [UMatrix.from_int_rows(ring, [[1, 1], [0, 1]])])
    assert rep.defect().valuation == 0
    with pytest.raises(DefectTooLarge):
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
    t_small = random_matrix(ring, 2, rng).congruence_lift(3)
    m2 = t_small @ m @ t_small.inv()
    assert (m - m2).min_valuation() >= 3 and m != m2
    t, steps = align_homomorphisms(m, m2)
    assert steps == [LedgerStep(6, 3, "conjugation")]
    assert (t - UMatrix.identity(ring, 2)).min_valuation() >= 3
    tinv = t.inv()
    h1 = [UMatrix.identity(ring, 2), m, m @ m]
    h2 = [UMatrix.identity(ring, 2), m2, m2 @ m2]
    for a, b in zip(h1, h2):
        assert (t @ a @ tinv).rows == b.rows


def _perm_order(perm):
    power, order = list(perm), 1
    while power != sorted(power):
        power = [perm[j] for j in power]
        order += 1
    return order


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([("zp", 2), ("zp", 3), ("zp", 5), ("fpx", 2), ("fpx", 3), ("fpx", 5)]),
       st.integers(2, 5).flatmap(lambda n: st.permutations(range(n))),
       st.integers(3, 10), st.data(), st.integers(0, 2 ** 32))
def test_alignment_of_conjugate_permutations(ring_kind, perm, K, data, seed):
    # x a permutation matrix of order N in 2..6, y = T0 x T0^-1 with T0 in a
    # random congruence ball: k = val(x - y) > 2l aligns, k <= 2l is refused
    mode, p = ring_kind
    N = _perm_order(perm)
    l = 0
    while N % p ** (l + 1) == 0:
        l += 1
    assume(N >= 2 and (mode == "zp" or l == 0))
    ring = RingSpec(mode, p, K)
    rng = random.Random(seed)
    x = _perm_matrix(ring, perm)
    t0 = UMatrix.identity(ring, x.n) + shifted_random(ring, x.n, rng, data.draw(st.integers(1, K)))
    y = t0 @ x @ t0.inv()
    k = (x - y).min_valuation()
    if k < K and k <= 2 * l:
        with pytest.raises(HypothesisViolated):
            align_homomorphisms(x, y)
        return
    t, steps = align_homomorphisms(x, y)
    assert steps == ([] if k >= K else [LedgerStep(K, k - l, "conjugation")])
    assert (t - UMatrix.identity(ring, x.n)).min_valuation() >= min(k - l, K)
    assert (t @ x @ t.inv()).rows == y.rows


def test_alignment_refuses_unequal_orders():
    # -I has order 2 at K but agrees with I, of order 1, mod 2
    ring = RingSpec("zp", 2, 8)
    one = UMatrix.identity(ring, 2)
    with pytest.raises(HypothesisViolated):
        align_homomorphisms(-one, one)
    # a 3-cycle over F_3[X]/(X^8): l = 1 > 0 in equal characteristic
    ring = RingSpec("fpx", 3, 8)
    x = _perm_matrix(ring, [1, 2, 0])
    t0 = UMatrix.identity(ring, 3) + shifted_random(ring, 3, random.Random(2), 5)
    with pytest.raises(CharPUnsupported):
        align_homomorphisms(x, t0 @ x @ t0.inv())


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


def test_gog_tree_edges_must_span_at_load():
    # the count check: two vertices and no tree edge; the reach check: as
    # many tree edges as a spanning tree, but a self-loop at a leaves b
    # unreached.  Both fail when the graph is built, before any repair
    a, b = GogVertex("a", ("s",), ()), GogVertex("b", ("u",), ())
    with pytest.raises(PresentationError, match="must form a spanning tree"):
        GraphOfGroups((a, b), (GogEdge("a", "b", (), (), "t", False),))
    loop = {"vertices": [{"name": "a", "generators": ["s"]}, {"name": "b", "generators": ["u"]}],
            "edges": [{"source": "a", "target": "a", "word_source": [], "word_target": [],
                       "letter": "t", "in_tree": True}]}
    with pytest.raises(PresentationError, match="does not reach every vertex"):
        GraphOfGroups.from_json(loop)
    # a spanning tree gives its BFS order, (edge, child vertex) from the first vertex
    edge = GogEdge("b", "a", (), (), "t", True)
    assert GraphOfGroups((a, b), (edge,)).tree_order == [(edge, "b")]


def test_gog_json_roundtrip():
    gog = _bs23_gog()
    rt = GraphOfGroups.from_json(gog.to_json())
    assert rt == gog


def _all_pairs_defect_val(sigma, C):
    """Reference: min over all pairs of val(sigma(c) sigma(d) - sigma(cd))."""
    best = sigma[0].ring.precision
    for c in range(C.order):
        for d in range(C.order):
            v = ((sigma[c] @ sigma[d]) - sigma[class_product(C, c, d)]).min_valuation()
            best = min(best, v)
    return best


def _relator_level(rel, gens, sigma):
    """min over the list of val(rho(r) - I), K when every relator is exact."""
    return min(((a - sigma[t]).min_valuation() for a, t in _relator_values(rel, gens, sigma)),
               default=sigma[0].ring.precision)


def _cycle(m):
    return [(i + 1) % m for i in range(m)]


# name -> (generators, relators, generator permutations)
DIFF_GROUPS = {
    "C2": (["s"], [["s"] * 2], [_cycle(2)]),
    "C3": (["s"], [["s"] * 3], [_cycle(3)]),
    "C4": (["s"], [["s"] * 4], [_cycle(4)]),
    "C5": (["s"], [["s"] * 5], [_cycle(5)]),
    "S3": (["s", "t"], [["s", "s"], ["t"] * 3, ["s", "t"] * 2], [[1, 0, 2], [1, 2, 0]]),
    "D4": (["r", "s"], [["r"] * 4, ["s", "s"], ["s", "r", "s", "r"]],
           [[1, 2, 3, 0], [0, 3, 2, 1]]),
    "S4": (["s", "t"], [["s", "s"], ["t"] * 4, ["s", "t"] * 3],
           [[1, 0, 2, 3], [1, 2, 3, 0]]),
}

# DIFF_GROUPS plus S3 with a generator u = s, and with a generator e = 1
LEVEL_GROUPS = dict(
    DIFF_GROUPS,
    S3dup=(["s", "t", "u"], DIFF_GROUPS["S3"][1] + [["u", "s^-1"]],
           [[1, 0, 2], [1, 2, 0], [1, 0, 2]]),
    S3id=(["s", "t", "e"], DIFF_GROUPS["S3"][1] + [["e"]], [[1, 0, 2], [1, 2, 0], [0, 1, 2]]),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(LEVEL_GROUPS)), st.sampled_from(["zp", "fpx"]),
       st.sampled_from([2, 3, 5, 7]), st.integers(3, 10), st.booleans(), st.data(),
       st.integers(0, 2 ** 32))
def test_relator_level_is_section_defect(group, mode, p, K, conjugate, data, seed):
    # generator images that agree on each class of C (a repeated class gets
    # the same image, the class e gets I): the level of the group's relators,
    # which present C, and that of C's Schreier relators are both the
    # all-pairs defect of the section the images span
    names, relators, perms = LEVEL_GROUPS[group]
    ring = RingSpec(mode, p, K)
    rng = random.Random(seed)
    n = len(perms[0])
    u = random_gl(ring, n, rng) if conjugate else UMatrix.identity(ring, n)
    images = {}
    for perm in perms:
        if tuple(perm) not in images:
            noise = data.draw(st.integers(1, K))
            images[tuple(perm)] = (UMatrix.identity(ring, n) if perm == sorted(perm) else
                                   u @ _perm_matrix(ring, perm) @ u.inv()
                                   + shifted_random(ring, n, rng, noise))
    gens = [images[tuple(perm)] for perm in perms]
    C = closure_of_matrices([g.reduce(1) for g in gens])
    sigma = _tree_section(C, gens)
    want = _all_pairs_defect_val(sigma, C)
    own = _relator_list(C, Presentation.make(names, relators).relators)
    assert own.edges == ()
    schreier = _relator_list(C, [])
    assert len(schreier.words) == len(gens) * C.order - C.order + 1
    assert _relator_level(own, gens, sigma) == want == _relator_level(schreier, gens, sigma)


def test_coset_enumeration_orders():
    ring = RingSpec("zp", 5, 3)
    for names, relators, perms in LEVEL_GROUPS.values():
        C = closure_of_matrices([_perm_matrix(ring, perm) for perm in perms])
        tree, right, _ = enumerate_cosets(len(names), Presentation.make(names, relators).relators,
                                          2 * C.order)
        assert len(tree) == C.order
        # the closed table, renumbered by BFS, is the closure's Cayley table
        assert (tree, right) == (C.tree, C.right)
    # S4 passes through more than 24 live cosets before it closes at 24
    s4 = Presentation.make(*DIFF_GROUPS["S4"][:2]).relators
    with pytest.raises(CapExceeded):
        enumerate_cosets(2, s4, 24)
    # two lists that do not present their image: S4 without (st)^3, and the
    # BS(2,3) vertex <s>, which has no relators while its image is Z/5
    rng = random.Random(3)
    for names, relators, perms in ((["s", "t"], [["s", "s"], ["t"] * 4], DIFF_GROUPS["S4"][2]),
                                   (["s"], [], [_cycle(5)])):
        pres = Presentation.make(names, relators)
        n = len(perms[0])
        gens = [_perm_matrix(ring, perm) + shifted_random(ring, n, rng, 1) for perm in perms]
        C = closure_of_matrices([g.reduce(1) for g in gens])
        with pytest.raises(CapExceeded):
            enumerate_cosets(len(names), pres.relators, 2 * C.order)
        rel = _relator_list(C, pres.relators)
        assert len(rel.edges) == len(rel.words) == len(names) * C.order - C.order + 1
        # each Schreier word w(h) g w(hg)^-1 takes the value sigma(h) rho(g) sigma(hg)^-1
        sigma = _tree_section(C, gens)
        free = ApproxRep(Presentation.free(names), ring, n, gens)
        for w, (a, t) in zip(rel.words, _relator_values(rel, gens, sigma)):
            assert (free.eval_word(w) @ sigma[t]).rows == a.rows
    assert rel.words == (Word((1,) * 5),)


S3_D4_PERMS = [
    [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
    [[[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
     [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]],
]
S3_D4_PRESENTATIONS = [Presentation.make(*DIFF_GROUPS[g][:2]) for g in ("S3", "D4")]


# A 2-cochain of a section, at some element pairs (a, b): z[a, b] over `ring`,
# with act[a] = sigma(a) and act_inv[a] = sigma(a)^-1 over the same ring.
Cochain = namedtuple("Cochain", "image ring z act act_inv")


def _cocycle(sigma, C, pairs, j, mod_exp):
    """Reference: z(a, b) = coords_j of sigma(a) sigma(b) sigma(ab)^-1 mod w^mod_exp."""
    sigma_inv = [m.inv() for m in sigma]
    z = {(a, b): (sigma[a] @ sigma[b] @ sigma_inv[class_product(C, a, b)])
         .congruence_coords(j).reduce(mod_exp) for a, b in pairs}
    return Cochain(C, sigma[0].ring.with_precision(mod_exp), z,
                   [m.reduce(mod_exp) for m in sigma], [m.reduce(mod_exp) for m in sigma_inv])


def _classes(C):
    """The generator classes in generator order, e left out unless it is all."""
    return [s for s in dict.fromkeys(C.generator_indices) if s] or [0]


def _left_rows(C):
    return [(s, d) for s in _classes(C) for d in range(C.order)]


def _right_rows(C):
    return [(d, s) for d in range(C.order) for s in C.generator_indices]


def _full_average(sigma, C, level, mod_exp):
    """Reference: c(g) = (sum over all h of z(g, h)) / |C|, p not dividing |C|."""
    sigma_inv = [m.inv() for m in sigma]
    ring_q = sigma[0].ring.with_precision(mod_exp)
    ninv = ring_q.inv(ring_q.from_int(C.order))
    out = []
    for g in range(C.order):
        b = zero_matrix(ring_q, sigma[0].n)
        for h in range(C.order):
            z = sigma[g] @ sigma[h] @ sigma_inv[class_product(C, g, h)]
            b = b + z.congruence_coords(level).reduce(mod_exp)
        out.append(b.scale(ninv))
    return out


# LEVEL_GROUPS plus A4, of order 12
AVERAGING_GROUPS = dict(LEVEL_GROUPS, A4=(["a", "b"], [["a"] * 3, ["b"] * 2, ["a", "b"] * 3],
                                          [[1, 2, 0, 3], [1, 0, 3, 2]]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(AVERAGING_GROUPS)), st.sampled_from(["zp", "fpx"]),
       st.sampled_from([5, 7, 11]), st.integers(4, 12), st.integers(1, 11),
       st.integers(0, 2 ** 32))
@example("S3dup", "zp", 5, 8, 3, 0)
@example("S3id", "fpx", 7, 8, 3, 1)
@example("S4", "fpx", 5, 8, 3, 2)
@example("A4", "zp", 11, 12, 5, 3)
def test_generator_rows_give_full_average(group, mode, p, K, k, seed):
    # p not dividing N: on the tree sections of random generator images,
    # repeated and trivial generator classes among them, the row sums from
    # the Schreier edge values and the summed cocycle rows of exact inverses
    # alike, divided by N, are the average of the full N^2 cocycle table at
    # each generator class but e
    perms = AVERAGING_GROUPS[group][2]
    ring = RingSpec(mode, p, K)
    n = len(perms[0])
    k = min(k, K - 1)
    rng = random.Random(seed)
    gens = [_perm_matrix(ring, perm) + shifted_random(ring, n, rng, rng.randrange(k, K + 1))
            for perm in perms]
    C = closure_of_matrices([g.reduce(k) for g in gens])
    assume(C.p_part == 0)
    mod_exp = min(2 * k, K) - k
    ring_q = ring.with_precision(mod_exp)
    ninv = ring_q.inv(ring_q.from_int(C.order))
    sigma = _tree_section(C, gens)
    classes = [s for s in dict.fromkeys(C.generator_indices) if s]
    z = _cocycle(sigma, C, [(s, d) for s in classes for d in range(C.order)], k, mod_exp).z
    want = _full_average(sigma, C, k, mod_exp)
    summed = {s: sum((z[s, d] for d in range(1, C.order)), z[s, 0]) for s in classes}
    sums = _row_sums(C, gens, sigma, _averaging_weights(C), k, mod_exp)
    for got in (sums, summed):
        assert list(got) == classes
        assert [b.scale(ninv).rows for b in got.values()] == [want[s].rows for s in classes]


def _full_system_solve(z):
    """Reference: delta c = z with every c(g), g != e, unknown ((N - 1) n^2
    unknowns) and the equation a.c(b) + c(a) - c(ab) = z(a, b) at every pair
    of z (n^2 each), a.X = sigma(a) X sigma(a)^-1."""
    C, ring_q = z.image, z.ring
    n, N = z.act[0].n, C.order
    rows, rhs = [], []

    def var(e, a, b):
        return (e - 1) * n * n + a * n + b

    for (a, b), zab in z.z.items():
        ab = class_product(C, a, b)
        ua, uinv = z.act[a], z.act_inv[a]
        for r in range(n):
            for t in range(n):
                row = [0] * ((N - 1) * n * n)
                if b != 0:  # a.c(b) contributes u[r][x] uinv[y][t] per entry (x, y)
                    for x in range(n):
                        for y in range(n):
                            i = var(b, x, y)
                            row[i] = ring_q.add(row[i], ring_q.mul(ua.rows[r][x], uinv.rows[y][t]))
                if ab != 0:
                    i = var(ab, r, t)
                    row[i] = ring_q.sub(row[i], ring_q.one)
                if a != 0:
                    i = var(a, r, t)
                    row[i] = ring_q.add(row[i], ring_q.one)
                rows.append(row)
                rhs.append(zab.rows[r][t])
    x = solve_linear(rows, rhs, ring_q)
    return [zero_matrix(ring_q, n)] + [
        UMatrix(ring_q, n, tuple(tuple(x[var(e, a, b)] for b in range(n)) for a in range(n)))
        for e in range(1, N)]


def _coboundary_matches(c, z):
    """delta c = z at every pair of z: a.c(b) + c(a) - c(ab) = z(a, b)."""
    C = z.image
    return all((z.act[a] @ c[b] @ z.act_inv[a] + c[a] - c[class_product(C, a, b)]).rows
               == v.rows
               for (a, b), v in z.z.items())


def _solvable(solve):
    try:
        return solve()
    except Unsolvable:
        return None


def _agree_with_full_system(C, sigma, sigma_inv, rel, values):
    """The Fox solve of the Schreier list with right-hand sides `values` and
    the full system on the right rows z(h, g) (values at the Schreier edges,
    0 on tree edges) agree on solvability, and the Fox solution extended
    along C's tree, c(hg) = c(h) + h.c(g), solves the full system."""
    ring_q = values[0].ring
    z = Cochain(C, ring_q, {(d, s): zero_matrix(ring_q, sigma[0].n) for d, s in _right_rows(C)},
                [m.reduce(ring_q.precision) for m in sigma],
                [m.reduce(ring_q.precision) for m in sigma_inv])
    for (h, g, _), v in zip(rel.edges, values):
        z.z[h, C.generator_indices[g]] = v
    full = _solvable(lambda: _full_system_solve(z))
    fox = _solvable(lambda: _fox_solve(C, sigma, rel, values))
    assert (full is None) == (fox is None)
    if fox is None:
        return False
    c = [zero_matrix(ring_q, sigma[0].n)]
    for parent, g in C.tree[1:]:
        c.append(c[parent] + z.act[parent] @ fox[g] @ z.act_inv[parent])
    assert _coboundary_matches(c, z)
    return True


def test_fox_solve_matches_full_system(rng):
    # p | N.  On the Schreier list, with the relator values of random generator
    # images and with one value moved (mostly no longer a coboundary), the Fox
    # solve agrees with the full coboundary system; on the group's own list its
    # solution makes every relator exact at level j + mod_exp.  The old
    # gauge-fixed solve, the reference step's fallback, agrees with the full
    # system on the left rows of the same images' section.
    outcomes, old = set(), set()
    for ring in (RingSpec("zp", 2, 8), RingSpec("zp", 3, 8), RingSpec("zp", 2, 12),
                 RingSpec("fpx", 2, 8), RingSpec("fpx", 3, 6)):
        for (perms, pres), extra in itertools.product(zip(S3_D4_PERMS, S3_D4_PRESENTATIONS),
                                                      (1, 2)):
            n = len(perms[0])
            gens = [UMatrix.from_int_rows(ring, m) for m in perms]
            l = closure_of_matrices([g.reduce(1) for g in gens]).p_part
            k = 2 * l + extra  # the lifting hypothesis k > 2l
            if l == 0 or k >= ring.precision:
                continue
            gens = [g + shifted_random(ring, n, rng, k) for g in gens]
            C = closure_of_matrices([g.reduce(k) for g in gens])
            j = k - l
            mod_exp = min(2 * j, ring.precision) - j
            sigma = _tree_section(C, gens)
            sigma_inv = [m.inv() for m in sigma]
            for rel in (_relator_list(C, []), _relator_list(C, pres.relators)):
                values = [(a @ sigma_inv[t]).congruence_coords(j).reduce(mod_exp)
                          for a, t in _relator_values(rel, gens, sigma)]
                if not rel.edges:
                    c = _fox_solve(C, sigma, rel, values)
                    new = [(-x).lift_to(ring).congruence_lift(j) @ g for x, g in zip(c, gens)]
                    assert _relator_level(rel, new, _tree_section(C, new)) >= j + mod_exp
                    continue
                outcomes.add(_agree_with_full_system(C, sigma, sigma_inv, rel, values))
                i = rng.randrange(len(values))
                moved = list(values)
                moved[i] = moved[i] + shifted_random(moved[i].ring, n, rng, 0)
                outcomes.add(_agree_with_full_system(C, sigma, sigma_inv, rel, moved))
            z = _cocycle(sigma, C, _left_rows(C), j, mod_exp)
            s, d = rng.choice(_classes(C)), rng.randrange(1, C.order)
            moved = z._replace(z=dict(z.z))
            moved.z[s, d] = moved.z[s, d] + shifted_random(z.ring, n, rng, 0)
            for cochain in (z, moved):
                full = _solvable(lambda: _full_system_solve(cochain)) is not None
                ref = _solvable(lambda: _extend_along_tree(_gauge_fixed_solve(cochain), cochain))
                assert full == (ref is not None) and (ref is None or _coboundary_matches(ref, cochain))
                old.add(full)
    assert outcomes == old == {True, False}


def test_fox_solve_trivial_image(rng):
    # N = 1: the Schreier list is the generators themselves, z(g) = coords_k(g),
    # and the Fox solve c(g) = z(g) moves each to I - w^{2k} z(g)^2; averaging
    # sends both to I at once
    ring = RingSpec("zp", 3, 6)
    one = UMatrix.identity(ring, 2)
    k = 2
    gens = [one + shifted_random(ring, 2, rng, k) for _ in range(2)]
    C = closure_of_matrices([g.reduce(k) for g in gens])
    assert C.order == 1
    rel = _relator_list(C, [])
    assert rel.words == (Word((1,)), Word((2,)))
    values = [g.congruence_coords(k).reduce(k) for g in gens]
    c = _fox_solve(C, [one], rel, values)
    assert [x.rows for x in c] == [v.rows for v in values]
    new = [(-x).lift_to(ring).congruence_lift(k) @ g for x, g in zip(c, gens)]
    assert _relator_level(rel, new, [one]) >= 2 * k
    got, _, _, step = _lift_step(C, gens, [one], None, rel, _averaging_weights(C), k)
    assert [g.rows for g in got] == [one.rows] * 2 and step == LedgerStep(6, 2, "averaging")


# ---------------------------------------------------------------------------
# Differential test of the lifting loop against the old per-level step
# ---------------------------------------------------------------------------


def _left_bfs(C, classes):
    """Edges (s, h, sh, tree) of the left Cayley graph h -> sh in BFS order from e."""
    seen, queue, edges = {0}, [0], []
    for h in queue:
        for s in classes:
            g = class_product(C, s, h)
            edges.append((s, h, g, g not in seen))
            if g not in seen:
                seen.add(g)
                queue.append(g)
    return edges


def _gauge_fixed_solve(z):
    """Reference (the old fallback): delta c = z on the left rows, c(e) = 0,
    with c(s) at the generator classes the only unknowns.  Each left tree edge
    h -> sh sets c(sh) = s.c(h) + c(s) - z(s, h), so c(g) is a constant plus
    y.c(s') summed over the letters s' of g's tree word, y the product of the
    letters left of s'; the equations are the non-tree edges."""
    C, ring_q = z.image, z.ring
    submul = ring_q.row_submul
    n = z.act[0].n
    nn = n * n
    classes = _classes(C)
    offset = {s: i * nn for i, s in enumerate(s for s in classes if s)}
    terms = [[]] * C.order
    const = [zero_matrix(ring_q, n)] * C.order
    rows, rhs = [], []
    for s, h, g, tree in _left_bfs(C, classes):
        moved = [(t, class_product(C, s, y)) for t, y in terms[h]] + ([(s, 0)] if s else [])
        c0 = z.act[s] @ const[h] @ z.act_inv[s] - z.z[s, h]
        if tree:
            terms[g], const[g] = moved, c0
            continue
        coef = Counter(moved)
        coef.subtract(terms[g])
        eq = [[0] * (len(offset) * nn) for _ in range(nn)]
        for (t, y), e in coef.items():
            if e:
                block = _conj_block(ring_q, z.act[y].rows, z.act_inv[y].rows)
                o, f = offset[t], ring_q.from_int(-e)
                for acc, brow in zip(eq, (block[i:i + nn] for i in range(0, nn * nn, nn))):
                    acc[o:o + nn] = submul(acc[o:o + nn], f, brow)
        rows.extend(eq)
        rhs.extend(x for r in (const[g] - c0).rows for x in r)
    x = solve_linear(rows, rhs, ring_q)
    return {s: UMatrix(ring_q, n, tuple(tuple(x[o + a * n:o + a * n + n]) for a in range(n)))
            for s, o in offset.items()}


def _extend_along_tree(gen, z):
    """c on all of C from its generator-class values, c(e) = 0: each left
    tree edge h -> sh sets c(sh) = s.c(h) + c(s) - z(s, h)."""
    C = z.image
    c = [zero_matrix(z.ring, z.act[0].n)] * C.order
    for s, h, g, tree in _left_bfs(C, _classes(C)):
        if tree:
            c[g] = z.act[s] @ c[h] @ z.act_inv[s] + gen.get(s, c[0]) - z.z[s, h]
    return c


def _reference_average(z):
    """The averaged cochain at every element: b(g) = sum_h z(g, h) from the
    generator rows along the left tree, then divided by |C|; None when
    obstructed."""
    C, ring_q = z.image, z.ring
    n, a = z.act[0].n, C.p_part
    if a >= ring_q.precision:
        return None
    order = ring_q.from_int(C.order)
    sums = {s: sum((z.z[s, d] for d in range(1, C.order)), z.z[s, 0]) for s in _classes(C)}
    b = [zero_matrix(ring_q, n)] * C.order
    for s, h, g, tree in _left_bfs(C, _classes(C)):
        if tree:
            b[g] = z.act[s] @ b[h] @ z.act_inv[s] + sums[s] - z.z[s, h].scale(order)
    minv = ring_q.inv(ring_q.from_int(C.order // ring_q.p ** a))
    c = []
    for bg in b:
        t = bg.scale(minv)
        if t.min_valuation() < a:
            return None
        c.append(UMatrix(ring_q, n, tuple(tuple(ring_q.shift_down(x, a) for x in r)
                                          for r in t.rows)))
    return c


def _reference_step(ring, gens, k):
    """One lifting step as the old code took it: a closure at level k, the
    cocycle of its own section on the left rows and a correction of the
    section at every element (averaged, else by the gauge-fixed solve),
    whose all-pairs defect is the level recorded.  Also returns the level
    that each correction tried reached, by method."""
    K = ring.precision
    C = closure_of_matrices([g.reduce(k) for g in gens])
    a = C.p_part
    if not ring.is_mixed and a > 0:
        raise CharPUnsupported("p-part in equal characteristic")
    if k <= 2 * a:
        raise HypothesisViolated("k <= 2l")
    j = k - a
    target = min(2 * j, K)
    mod_exp = target - j
    sigma = _tree_section(C, gens)
    z = _cocycle(sigma, C, _left_rows(C), j, mod_exp)
    if any(v.min_valuation() < min(a, mod_exp) for v in z.z.values()):
        raise RepairError("cocycle values are not divisible by the p-part")

    def corrected(c):
        fixed = [(-m).lift_to(ring).congruence_lift(j) @ sm for m, sm in zip(c, sigma)]
        return [fixed[s] for s in C.generator_indices], _all_pairs_defect_val(fixed, C)

    method, measured, tried = "averaging", -1, {}
    cand = _reference_average(z)
    if cand is not None:
        new_gens, measured = corrected(cand)
        tried[method] = measured
    if measured < target:
        method = "linear-solve"
        new_gens, measured = corrected(_extend_along_tree(_gauge_fixed_solve(z), z))
        tried[method] = measured
        if measured < target:
            raise Unsolvable("reference step fell short", measured)
    return new_gens, LedgerStep(measured, j, method), tried


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(DIFF_GROUPS)), st.sampled_from(["zp", "fpx"]),
       st.sampled_from([2, 3, 5, 7]), st.integers(4, 12), st.integers(1, 11), st.booleans(),
       st.integers(0, 2 ** 32))
# first steps at p | N where the loop reaches the reference's linear-solve
# level at input levels 5 and 6 and where it goes higher, and a step with
# p not dividing N where the loop's averaged level is higher than the
# reference's
@example("C4", "zp", 2, 12, 5, False, 0)
@example("C4", "zp", 2, 12, 6, False, 0)
@example("C4", "zp", 2, 12, 6, True, 7)
@example("C3", "zp", 2, 10, 2, True, 0)
def test_lifting_loop_matches_reference_step(group, mode, p, K, level, conjugate, seed):
    # the relator-list loop against the old per-level step on the same
    # inputs: the same exception, a level that is the all-pairs defect of
    # the section the new generators span, reaches min(2j, K) and is never
    # below the level of the reference's section corrected by the same
    # method, and the repair's own contract on the way out.  The loop
    # averages exactly when p does not divide N and solves otherwise; the
    # reference averages first and solves only when that falls short, so
    # at p | N it may not have solved at all.
    gen_names, relators, perms = DIFF_GROUPS[group]
    ring = RingSpec(mode, p, K)
    rng = random.Random(seed)
    n = len(perms[0])
    u = random_gl(ring, n, rng) if conjugate else UMatrix.identity(ring, n)
    uinv = u.inv()
    level = min(level, K - 1)
    rep = ApproxRep(Presentation.make(gen_names, relators), ring, n,
                    [u @ _perm_matrix(ring, perm) @ uinv + shifted_random(ring, n, rng, level)
                     for perm in perms])
    assume(not rep.defect().saturated)

    def outcome(fn):
        try:
            return fn(), None
        except (DefectTooLarge, RepairError, Unsolvable) as e:
            return None, type(e)

    k0 = rep.defect().valuation
    if k0 < 1:
        assert outcome(lambda: repair_finite_image(rep))[1] is DefectTooLarge
        return
    C = closure_of_matrices([g.reduce(k0) for g in rep.images])
    rel = _relator_list(C, rep.presentation.relators)
    assert rel.edges == ()  # each of these presentations presents its image
    weights = None if C.p_part else _averaging_weights(C)
    gens, k, steps = list(rep.images), k0, []
    sigma = _tree_section(C, gens)
    values = _relator_values(rel, gens, sigma) if C.p_part else None
    err = None
    while k < K:
        # the loop checks l and k once, before its first step
        if C.p_part and not ring.is_mixed:
            err = CharPUnsupported
        elif k <= 2 * C.p_part:
            err = HypothesisViolated
        else:
            new, err = outcome(lambda: _lift_step(C, gens, sigma, values, rel, weights, k))
        ref, ref_err = outcome(lambda: _reference_step(ring, gens, k))
        assert err is ref_err
        if err:
            break
        gens, sigma, values, step = new
        assert step.defect_val_after == _all_pairs_defect_val(_tree_section(C, gens), C)
        assert (step.method == "linear-solve") == (C.p_part > 0)
        assert step.defect_val_after >= min(2 * step.distance_spent_val, K)
        assert step.defect_val_after >= ref[2].get(step.method, -1)
        assert step.distance_spent_val == ref[1].distance_spent_val
        steps.append(step)
        k = step.defect_val_after
    got, got_err = outcome(lambda: repair_finite_image(rep))
    assert got_err is (err if k < K else None)
    if got_err:
        return
    fixed, ledger = got
    assert ledger.steps == steps
    assert all(fixed.eval_word(r).rows == UMatrix.identity(ring, n).rows
               for r in fixed.presentation.relators)
    assert rep.rep_dist(fixed) <= NormValue.from_valuation(ring, k0 - C.p_part)
    assert C.order % ledger.image_order == 0


# name -> (generators, relators, generator permutations), images with p | N for some p
FOX_SHAPES = {
    # the BS(2,3) vertex <s> has no relators of its own, so its list is C's
    # Schreier list; s^5 only sets the input's level
    "BS23": (["s"], [["s"] * 5], [_cycle(5)]),
    "C2": DIFF_GROUPS["C2"], "C3": DIFF_GROUPS["C3"], "C4": DIFF_GROUPS["C4"],
    "S3": DIFF_GROUPS["S3"], "D4": DIFF_GROUPS["D4"],
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(FOX_SHAPES)), st.data(), st.integers(6, 12),
       st.integers(1, 11), st.booleans(), st.integers(0, 2 ** 32))
def test_fox_step_raises_as_reference_step(shape, data, K, level, conjugate, seed):
    # one step at the input's level on random p | N inputs, BS(2,3) vertex
    # images among them: the Fox step and the old step raise the same
    # exception, Unsolvable included, and a step that returns reaches its target
    names, relators, perms = FOX_SHAPES[shape]
    n = len(perms[0])
    order = closure_of_matrices([_perm_matrix(RingSpec("zp", 2, 1), perm)
                                 for perm in perms]).order
    p = data.draw(st.sampled_from([q for q in (2, 3, 5) if order % q == 0]))
    ring = RingSpec("zp", p, K)
    rng = random.Random(seed)
    u = random_gl(ring, n, rng) if conjugate else UMatrix.identity(ring, n)
    rep = ApproxRep(Presentation.make(names, relators), ring, n,
                    [u @ _perm_matrix(ring, perm) @ u.inv()
                     + shifted_random(ring, n, rng, min(level, K - 1)) for perm in perms])
    k = rep.defect().valuation
    assume(1 <= k < K)
    C = closure_of_matrices([g.reduce(k) for g in rep.images])
    assume(k > 2 * C.p_part)
    own = [] if shape == "BS23" else rep.presentation.relators

    def outcome(fn):
        try:
            return fn(), None
        except (RepairError, Unsolvable) as e:
            return None, type(e)

    sigma, rel = _tree_section(C, rep.images), _relator_list(C, own)
    new, err = outcome(lambda: _lift_step(C, rep.images, sigma,
                                          _relator_values(rel, rep.images, sigma), rel, None, k))
    _, ref_err = outcome(lambda: _reference_step(ring, rep.images, k))
    assert err is ref_err
    if not err:
        assert new[3].defect_val_after >= min(2 * (k - C.p_part), K)


# (group, mode, p, K): the group's own list (S3) and the Schreier fallback
# (S4 on the Moore presentation, whose enumeration passes 2N = 48 live
# cosets), by averaging (p = 5) and by the Fox solve (p = 2, 3; Z/p^K only,
# as F_p[X] needs a p'-image)
SECTION_GROUPS = dict(DIFF_GROUPS, S4moore=(
    ["s", "t"], [["s", "s"], ["t"] * 4, ["s", "t"] * 3, ["s", "t^-1", "s", "t"] * 3,
                 ["s", "t^-1", "t^-1", "s", "t", "t"] * 2], DIFF_GROUPS["S4"][2]),
    # <s, t, u | s^2> with u in the class of s: on C's Schreier list the
    # edge (e, u) leaves the tree
    S3dupschreier=(["s", "t", "u"], [["s", "s"]], LEVEL_GROUPS["S3dup"][2]))
SECTION_CASES = [("S3", "zp", 5, 8), ("S3", "fpx", 5, 8), ("S3", "zp", 2, 10),
                 ("S3", "zp", 3, 8), ("S4moore", "zp", 5, 8), ("S4moore", "fpx", 5, 8),
                 ("S4moore", "zp", 3, 8)]


def _section_rep(group, ring, seed):
    """SECTION_GROUPS[group]'s permutations, conjugated unless seed is 0, plus
    noise at level 3."""
    names, relators, perms = SECTION_GROUPS[group]
    rng = random.Random(seed)
    n = len(perms[0])
    u = random_gl(ring, n, rng) if seed else UMatrix.identity(ring, n)
    rep = ApproxRep(Presentation.make(names, relators), ring, n,
                    [u @ _perm_matrix(ring, perm) @ u.inv() + shifted_random(ring, n, rng, 3)
                     for perm in perms])
    assert rep.defect().valuation == 3
    return rep


def _counting(monkeypatch, calls, name):
    """Count the calls of homrepair's `name` into calls[name]."""
    original = getattr(homrepair, name)

    def wrapped(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(homrepair, name, wrapped)


@pytest.mark.parametrize("group, mode, p, K", SECTION_CASES)
def test_repair_builds_one_section_per_step_and_one_closure(monkeypatch, group, mode, p, K):
    # each lifting step builds one tree section (plus the loop's first),
    # except the last step on the group's own list, as nothing reads it; a
    # non-saturated repair closes at most once, at the defect level: the
    # first repair of a presentation closes, and a later one reads C from
    # the recorded coset table when its relators present the image (S3),
    # but S4 Moore's enumeration fails its 2N cap, so each of its repairs
    # closes.  The image order read from the kernel bound is the order of
    # the output's closure at K
    monkeypatch.setattr(homrepair, "_presented", {})
    ring = RingSpec(mode, p, K)
    calls = Counter()
    _counting(monkeypatch, calls, "_tree_section")
    _counting(monkeypatch, calls, "closure_of_matrices")
    for seed in range(3):
        rep = _section_rep(group, ring, seed)
        calls.clear()
        out, ledger = repair_finite_image(rep)
        assert ledger.verified and ledger.steps
        C = closure_of_matrices([g.reduce(3) for g in rep.images])
        own = not _relator_list(C, rep.presentation.relators).edges
        assert own == (group != "S4moore")
        method = "linear-solve" if C.p_part else "averaging"
        assert {s.method for s in ledger.steps} == {method}
        assert calls["_tree_section"] == 1 + len(ledger.steps) - own
        assert calls["closure_of_matrices"] == (1 if seed == 0 or group == "S4moore" else 0)
        assert ledger.image_order == closure_of_matrices(list(out.images)).order
    record = homrepair._presented[2, rep.presentation.relators]
    assert record[1] is None if group == "S4moore" else record[1] == C.tree


def _collapsing_rep(E, extra):
    """<a | a^3> (extra 0), or <a, b | a^3> with b = I exactly, whose
    enumeration fails so the repair takes C's Schreier list (extra 1), over
    Z/3^8 with a = I + 27 E: a has order 3 at its defect level 4, and the
    repair, which moves it by 3^3, may send it to an element of order 1."""
    ring = RingSpec("zp", 3, 8)
    a = UMatrix.from_int_rows(ring, [[int(i == j) + 27 * e for j, e in enumerate(row)]
                                     for i, row in enumerate(E)])
    return ApproxRep(Presentation.make(["a", "b"][:1 + extra], [["a"] * 3]), ring, 2,
                     [a] + [UMatrix.identity(ring, 2)] * extra)


def _assert_image_order(rep, schreier, order):
    """The repair's image order, read from the output on the tree words of H0
    = {c : sigma0(c) = I mod w^{k0 - l}} alone, is the number of distinct
    images of the output's whole tree section: `order`, or N when None."""
    k0 = rep.defect().valuation
    C = closure_of_matrices([g.reduce(k0) for g in rep.images])
    assert bool(_relator_list(C, rep.presentation.relators).edges) == schreier
    out, ledger = repair_finite_image(rep)
    assert ledger.verified
    assert ledger.image_order == len({m.rows for m in _tree_section(C, out.images)}) == (
        order or C.order)


@pytest.mark.parametrize("group, mode, p, K", SECTION_CASES)
def test_image_order_is_the_output_section_size(group, mode, p, K):
    # p | N and p prime to N, on the group's own list and on the Schreier
    # list (S4 Moore); the image keeps its order N
    for seed in range(2):
        _assert_image_order(_section_rep(group, RingSpec(mode, p, K), seed),
                            group == "S4moore", None)


@pytest.mark.parametrize("E, order", [(((1, 0), (0, 0)), 1), (((0, 1), (1, 0)), 3)])
@pytest.mark.parametrize("extra", [0, 1])
def test_image_order_of_a_collapsing_image(E, order, extra):
    # H0 is all of C = Z/3: the repair of a = I + 27 E sends a to I (E =
    # E_11) or to an element of order 3, on the own and the Schreier list
    _assert_image_order(_collapsing_rep(E, extra), bool(extra), order)


@pytest.mark.parametrize("group, p, k, first, later",
                         [("S4", 5, 3, 144, 98), ("S3", 5, 3, 60, 50), ("D4", 2, 7, 36, 22)])
def test_repair_matmul_counts(monkeypatch, group, p, k, first, later):
    # the counts that repair_finite_image states, on the benchmark's shapes:
    # permutation images plus noise at level k over Z/p^8, two averaging
    # steps (S4, S3) or one Fox step (D4).  The first repair of a
    # presentation in a process also closes C and enumerates it; a later one
    # reads C from the record
    monkeypatch.setattr(homrepair, "_presented", {})
    names, relators, perms = DIFF_GROUPS[group]
    ring = RingSpec("zp", p, 8)
    rng = random.Random(1)
    n = len(perms[0])
    matmul = UMatrix.__matmul__
    counts = []
    for _ in range(3):
        rep = ApproxRep(Presentation.make(names, relators), ring, n,
                        [_perm_matrix(ring, q) + shifted_random(ring, n, rng, k) for q in perms])
        calls = []
        monkeypatch.setattr(UMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
        _, ledger = repair_finite_image(rep)
        monkeypatch.setattr(UMatrix, "__matmul__", matmul)
        assert ledger.initial_defect_val == k and len(ledger.steps) == 1 + (p == 5)
        counts.append(len(calls))
    assert counts == [first, later, later]


@pytest.mark.parametrize("group", ["S3", "D4", "S4", "S4moore"])
@pytest.mark.parametrize("mode", ["zp", "fpx"])
def test_recorded_coset_table_is_the_closure(monkeypatch, group, mode):
    # C read from a presentation's recorded coset table has the closure's
    # tables, on images conjugated (seeds 1, 2) and not (seed 0), and no
    # closure runs.  S4 Moore closes only past 59 live cosets, above its 2N
    # = 48, so its table is recorded from a run under a larger cap, and its
    # list stays Schreier's
    monkeypatch.setattr(homrepair, "_presented", {})
    calls = Counter()
    _counting(monkeypatch, calls, "closure_of_matrices")
    names, relators, _ = SECTION_GROUPS[group]
    pres = Presentation.make(names, relators)
    tree, right, most = enumerate_cosets(len(names), pres.relators, 100)
    homrepair._presented[len(names), pres.relators] = (most, tree, right, {})
    ring = RingSpec(mode, 3, 8)
    for seed in range(3):
        rep = _section_rep(group, ring, seed)
        want = closure_of_matrices([g.reduce(3) for g in rep.images])
        C, rel, sigma = _image(rep.images, 3, pres.relators, 24)
        assert not calls
        for name in ("order", "p_part", "tree", "right", "back", "generator_indices"):
            assert getattr(C, name) == getattr(want, name)
        assert [m.rows for m in sigma] == [m.rows for m in _tree_section(want, rep.images)]
        assert rel == _relator_list(want, pres.relators)
        assert bool(rel.edges) == (group == "S4moore") == (most >= 2 * C.order)


def _outcome(repair, *args):
    """A repair's output and ledger as JSON text, or its error."""
    try:
        out, ledger = repair(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return json.dumps(out.to_json()), json.dumps(ledger.to_json())


@pytest.mark.parametrize("group, mode, p, K", SECTION_CASES + [
    ("D4", "zp", 3, 8), ("S4", "fpx", 5, 8), ("C5", "zp", 5, 8), ("S3dupschreier", "zp", 5, 8)])
def test_record_hit_repairs_as_a_miss(monkeypatch, group, mode, p, K):
    # a miss, then a hit of the same input, then a miss after the record is
    # cleared give byte-identical images and ledgers; only the hit skips the
    # closure, and a presentation whose enumeration fails its cap (S4 Moore,
    # <s, t, u | s^2>) misses every time
    monkeypatch.setattr(homrepair, "_presented", {})
    calls = Counter()
    _counting(monkeypatch, calls, "closure_of_matrices")
    rep = _section_rep(group, RingSpec(mode, p, K), 1)
    runs, closures = [], []
    for clear in (False, False, True):
        if clear:
            homrepair._presented.clear()
        runs.append(_outcome(repair_finite_image, rep))
        closures.append(calls.pop("closure_of_matrices", 0))
    assert runs[0] == runs[1] == runs[2]
    failed = group in ("S4moore", "S3dupschreier")
    assert closures == [1, 1 if failed else 0, 1]


def test_graph_vertex_repair_reads_the_record(monkeypatch):
    # graph_repair's vertex loop shares the helper: its second repair of an
    # S3 vertex reads C from the record, with the same output
    monkeypatch.setattr(homrepair, "_presented", {})
    calls = Counter()
    _counting(monkeypatch, calls, "closure_of_matrices")
    names, relators, _ = SECTION_GROUPS["S3"]
    gog = GraphOfGroups((GogVertex("v", tuple(names), tuple(map(tuple, relators))),), ())
    rep = _section_rep("S3", RingSpec("zp", 5, 8), 2)
    rep = ApproxRep(gog.standard_presentation(), rep.ring, rep.n, rep.images)
    runs = []
    for _ in range(2):
        runs.append(_outcome(graph_repair, gog, rep))
        runs.append(calls.pop("closure_of_matrices", 0))
    assert runs[0] == runs[2] and runs[0][0].startswith("{")
    assert runs[1::2] == [1, 0]


def _swap_vertex_rep(seed, vertices=(GogVertex("v", ("s",), (("s", "s"),)),), edges=()):
    """<s | s^2> on a swap plus noise at level 3 over Z/2^8, as a graph of
    groups; a further vertex or tree edge letter gets I plus noise."""
    gog = GraphOfGroups(vertices, edges)
    ring, rng = RingSpec("zp", 2, 8), random.Random(seed)
    pres = gog.standard_presentation()
    rep = ApproxRep(pres, ring, 2, [(_perm_matrix(ring, [1, 0]) if g == "s"
                                     else UMatrix.identity(ring, 2))
                                    + shifted_random(ring, 2, rng, 3) for g in pres.generators])
    return gog, rep


def _outcome_digest(repair, *args):
    return hashlib.sha256("".join(_outcome(repair, *args)).encode()).hexdigest()


def test_graph_repair_evaluates_each_relator_once_per_level(monkeypatch):
    # a vertex repaired on its own relators takes their values from the
    # input's defect: 2 Fox steps evaluate the list twice, not 3 times, and
    # the output and ledger keep their bytes
    monkeypatch.setattr(homrepair, "_presented", {})
    calls = Counter()
    _counting(monkeypatch, calls, "_relator_values")
    gog, rep = _swap_vertex_rep(3)
    _, ledger = graph_repair(gog, rep)
    assert [s.method for s in ledger.steps] == ["linear-solve"] * 2
    assert calls["_relator_values"] == 2
    assert _outcome_digest(graph_repair, gog, rep) == \
        "28607940fd0a76020126dead7ba45620ce744619c255873d4807e183111e673f"


def test_graph_repair_skips_a_vertex_without_generators():
    # vertex b has no generators and the tree edge a - b empty words: b is
    # not repaired, its amalgamation is the identity, and t is sent to I
    gog, rep = _swap_vertex_rep(0, (GogVertex("a", ("s",), (("s", "s"),)), GogVertex("b", (), ())),
                                (GogEdge("a", "b", (), (), "t", True),))
    fixed, ledger = graph_repair(gog, rep)
    assert fixed.defect().saturated and fixed.images[1] == UMatrix.identity(rep.ring, 2)
    assert ledger.p_part == 1 and [s.method for s in ledger.steps] == ["linear-solve"] * 3
    assert _outcome_digest(graph_repair, gog, rep) == \
        "8f020985dc6167d34ba5e3fd4762d46f2d584bf247f8ab43b4dd0239e4f5aa28"


def test_graph_repair_returns_an_exact_input():
    # an input exact at K is its own repair: no step, p-part 0, distance K
    gog = _bs23_gog()
    ring = RingSpec("zp", 3, 8)
    rep = ApproxRep(gog.standard_presentation(), ring, 5, [
        _perm_matrix(ring, [(j + 1) % 5 for j in range(5)]),
        _perm_matrix(ring, [(4 * j) % 5 for j in range(5)])])
    fixed, ledger = graph_repair(gog, rep)
    assert fixed is rep and not ledger.steps and ledger.verified
    assert (ledger.initial_defect_val, ledger.p_part, ledger.final_distance_val) == (8, 0, 8)


def _quotient_rep(ring, seed):
    """S3's presentation on images whose t is I mod w^3: C is Z/2, a
    proper quotient of S3."""
    names, relators, perms = SECTION_GROUPS["S3"]
    rng = random.Random(seed)
    u = random_gl(ring, 3, rng)
    s = u @ _perm_matrix(ring, perms[0]) @ u.inv() + shifted_random(ring, 3, rng, 3)
    t = UMatrix.identity(ring, 3) + shifted_random(ring, 3, rng, 3)
    rep = ApproxRep(Presentation.make(names, relators), ring, 3, [s, t])
    assert rep.defect().valuation == 3
    return rep


def _odd(perm):
    """Whether a permutation is odd: n minus its cycle count is."""
    seen, cycles = set(), 0
    for i in range(len(perm)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (len(perm) - cycles) % 2 == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["S3", "D4", "S4", "S4moore", "C4", "S3dupschreier"]),
       st.sampled_from(["zp", "fpx"]), st.sampled_from([2, 3, 5, 7]), st.integers(6, 10),
       st.booleans(), st.integers(0, 2 ** 32))
def test_random_repairs_read_the_record_as_a_miss(group, mode, p, K, sign, seed):
    # after a faithful repair records its presentation, a second input, a
    # faithful one or its sign quotient (each generator sent to (0 1) or
    # I, an image of order at most 2), repairs as it does with the record
    # cleared: byte-identical images and ledger, or the same error; this
    # covers the group's own list, the Schreier list and non-faithful hits
    names, relators, perms = SECTION_GROUPS[group]
    ring = RingSpec(mode, p, K)
    rng = random.Random(seed)
    n = len(perms[0])
    swap = [1, 0] + list(range(2, n))
    reps = []
    for quotient in (False, sign):
        u = random_gl(ring, n, rng)
        reps.append(ApproxRep(Presentation.make(names, relators), ring, n, [
            u @ _perm_matrix(ring, (swap if _odd(perm) else sorted(perm)) if quotient else perm)
            @ u.inv() + shifted_random(ring, n, rng, 3) for perm in perms]))
    saved = homrepair._presented
    try:
        homrepair._presented = {}
        _outcome(repair_finite_image, reps[0])
        got = _outcome(repair_finite_image, reps[1])
        homrepair._presented = {}
        assert got == _outcome(repair_finite_image, reps[1])
    finally:
        homrepair._presented = saved


@pytest.mark.parametrize("mode", ["zp", "fpx"])
def test_quotient_input_takes_the_closure(monkeypatch, mode):
    # a quotient input misses first (its enumeration fails at 2N = 4), an S3
    # input then re-enumerates under its larger cap and records S3's table,
    # and the quotient input tried against that table stops at the first
    # repeated image, closes, and takes the Schreier list with no
    # enumeration: its output is the one of a cleared record
    monkeypatch.setattr(homrepair, "_presented", {})
    calls = Counter()
    _counting(monkeypatch, calls, "closure_of_matrices")
    _counting(monkeypatch, calls, "enumerate_cosets")
    ring = RingSpec(mode, 5, 8)
    quotient, s3 = _quotient_rep(ring, 4), _section_rep("S3", ring, 4)
    runs = []
    for rep in (quotient, s3, quotient):
        runs.append(_outcome(repair_finite_image, rep))
        runs.append((calls.pop("closure_of_matrices", 0), calls.pop("enumerate_cosets", 0)))
    assert runs[1::2] == [(1, 1), (1, 1), (1, 0)]
    assert runs[0] == runs[4] and json.loads(runs[0][1])["image_order"] == 2
    assert homrepair._presented[2, quotient.presentation.relators][1] is not None


def test_record_hit_above_cap_raises_the_closure_error(monkeypatch):
    # a recorded table of N' classes is read only when N' <= cap; above it
    # the closure runs and raises its own CapExceeded
    monkeypatch.setattr(homrepair, "_presented", {})
    rep = _section_rep("S3", RingSpec("zp", 5, 8), 3)
    want = _outcome(repair_finite_image, rep, 6)
    assert _outcome(repair_finite_image, rep, 6) == want and want[0].startswith("{")
    with pytest.raises(CapExceeded, match="^closure exceeded cap 5$"):
        repair_finite_image(rep, 5)


def test_failed_record_skips_the_enumeration_under_its_cap(monkeypatch):
    # HLT is deterministic: an enumeration that failed at cap X is not rerun
    # for an image with 2N <= X, and is rerun, and its record raised, for a
    # larger image.  <s | > on cyclic images, and <s, t | s^2> on S3 and D4
    monkeypatch.setattr(homrepair, "_presented", {})
    calls = Counter()
    _counting(monkeypatch, calls, "enumerate_cosets")
    ring = RingSpec("zp", 7, 6)
    rng = random.Random(6)
    free = Presentation.make(["s"]).relators
    one_relator = Presentation.make(["s", "t"], [["s", "s"]]).relators
    for relators, perms, want in ((free, [_cycle(5)], 1), (free, [_cycle(5)], 0),
                                  (free, [[1, 2, 0, 3, 4]], 0), (free, [_cycle(6)], 1),
                                  (one_relator, DIFF_GROUPS["S3"][2], 1),
                                  (one_relator, DIFF_GROUPS["S3"][2], 0),
                                  (one_relator, DIFF_GROUPS["D4"][2], 1)):
        n = len(perms[0])
        gens = [_perm_matrix(ring, perm) + shifted_random(ring, n, rng, 2) for perm in perms]
        C, rel, _ = _image(gens, 2, relators, 100)
        assert calls.pop("enumerate_cosets", 0) == want
        assert len(rel.edges) == len(perms) * C.order - C.order + 1
        assert homrepair._presented[len(perms), relators] == (2 * C.order, None) or not want


@pytest.mark.parametrize("group, mode, p, K", SECTION_CASES)
def test_repair_evaluates_its_relator_list_once_per_level(monkeypatch, group, mode, p, K):
    # each step's re-measure evaluates the relator list once and hands its
    # values to the next step: a Fox repair (p | N) on the Schreier list (S4
    # Moore at p = 3) adds one evaluation before its first step; on the
    # group's own list (S3 at p = 2, 3) its first step reads the values that
    # measured the input's defect, and an averaging repair reads none
    ring = RingSpec(mode, p, K)
    calls = Counter()
    _counting(monkeypatch, calls, "_relator_values")
    for seed in range(3):
        rep = _section_rep(group, ring, seed)
        calls.clear()
        _, ledger = repair_finite_image(rep)
        fox = ledger.p_part > 0
        assert {s.method for s in ledger.steps} == {"linear-solve" if fox else "averaging"}
        assert calls["_relator_values"] == len(ledger.steps) + (fox and group == "S4moore")


@pytest.mark.parametrize("group, p, level", [("S3", 2, 3), ("S3", 3, 3), ("C4", 2, 5)])
def test_fox_step_on_own_list_multiplies_by_no_identity(monkeypatch, group, p, level):
    # on the group's own list every relator value is rho(r) against sigma(e)
    # = I, so the p | N step takes z(r) = coords_j(rho(r) - I) with no
    # product by sigma(e^{-1}) = I
    names, relators, perms = DIFF_GROUPS[group]
    ring = RingSpec("zp", p, 12)
    n = len(perms[0])
    rng = random.Random(5)
    u = random_gl(ring, n, rng)
    rep = ApproxRep(Presentation.make(names, relators), ring, n,
                    [u @ _perm_matrix(ring, perm) @ u.inv() + shifted_random(ring, n, rng, level)
                     for perm in perms])
    k = rep.defect().valuation
    C = closure_of_matrices([g.reduce(k) for g in rep.images])
    rel = _relator_list(C, rep.presentation.relators)
    assert C.p_part and not rel.edges
    sigma = _tree_section(C, rep.images)
    right_factors = []
    matmul = UMatrix.__matmul__
    monkeypatch.setattr(UMatrix, "__matmul__",
                        lambda a, b: right_factors.append(b.rows) or matmul(a, b))
    _, _, _, step = _lift_step(C, rep.images, sigma, _relator_values(rel, rep.images, sigma),
                               rel, None, k)
    assert step.method == "linear-solve" and right_factors
    assert UMatrix.identity(ring, n).rows not in right_factors


@pytest.mark.parametrize("group, mode, p, K", [("S3", "zp", 5, 8), ("S3", "zp", 2, 10),
                                               ("S4moore", "zp", 3, 8),
                                               ("S3dupschreier", "fpx", 5, 8)])
def test_repair_multiplies_by_no_identity(monkeypatch, group, mode, p, K):
    # the closure and the tree section start from the identity: its children
    # are the generators, taken as they are, and the relator and edge values
    # skip every factor sigma(e), so no product of a whole repair has an
    # identity factor
    names, relators, perms = SECTION_GROUPS[group]
    ring = RingSpec(mode, p, K)
    n = len(perms[0])
    rng = random.Random(1)
    u = random_gl(ring, n, rng)
    rep = ApproxRep(Presentation.make(names, relators), ring, n,
                    [u @ _perm_matrix(ring, perm) @ u.inv() + shifted_random(ring, n, rng, 3)
                     for perm in perms])
    products = []
    matmul = UMatrix.__matmul__

    def counting(a, b):
        products.append((a.rows, b.rows, UMatrix.identity(a.ring, n).rows))
        return matmul(a, b)
    monkeypatch.setattr(UMatrix, "__matmul__", counting)
    out, ledger = repair_finite_image(rep)
    assert ledger.verified and ledger.steps and products
    assert not [1 for a, b, ident in products if ident in (a, b)]


# (group, mode, p, K): relators with no inverse letter, so that measuring
# them inverts nothing; the repeated class u = s is spelled u s, as s^2 = 1
NO_INVERSE_GROUPS = dict(
    SECTION_GROUPS,
    S3dup=(["s", "t", "u"], DIFF_GROUPS["S3"][1] + [["u", "s"]], LEVEL_GROUPS["S3dup"][2]),
    S3id=LEVEL_GROUPS["S3id"],
    S3schreier=(["s", "t"], [["s", "s"]], DIFF_GROUPS["S3"][2]))


@pytest.mark.parametrize("group, mode, p, K", [
    ("S3", "zp", 5, 8), ("S3", "fpx", 7, 10), ("S4", "fpx", 5, 8), ("S4", "zp", 11, 12),
    ("S3dup", "zp", 7, 8), ("S3id", "fpx", 5, 8), ("S3schreier", "zp", 5, 12)])
def test_averaging_repair_inverts_no_matrix(monkeypatch, group, mode, p, K):
    # p not dividing N: the row sums read the Schreier edge values against
    # sigma(t^{-1}), so a repair, from its first defect to its re-measure,
    # inverts no matrix
    names, relators, perms = NO_INVERSE_GROUPS[group]
    ring = RingSpec(mode, p, K)
    n = len(perms[0])
    rng = random.Random(2)
    u = random_gl(ring, n, rng)
    rep = ApproxRep(Presentation.make(names, relators), ring, n,
                    [u @ _perm_matrix(ring, perm) @ u.inv() + shifted_random(ring, n, rng, 3)
                     for perm in perms])
    inversions = Counter()
    inv = UMatrix.inv
    monkeypatch.setattr(UMatrix, "inv", lambda m: inversions.update([m.n]) or inv(m))
    out, ledger = repair_finite_image(rep)
    assert ledger.verified and ledger.steps
    assert {s.method for s in ledger.steps} == {"averaging"}
    assert not inversions


ENTRYWISE_SCALAR_OPS = ("add", "sub", "neg", "shift_down", "shift_up", "low_part")


@pytest.mark.parametrize("group", ["S4", "S4moore"])
@pytest.mark.parametrize("mode", ["zp", "fpx"])
def test_averaging_repair_is_row_level(monkeypatch, group, mode):
    # every entrywise matrix operation of a repair, from its first defect to
    # its re-measure, is one RingSpec row operation per row: ultranorm_linalg,
    # presentations and homrepair call no scalar add, sub, neg, shift or
    # reduction (scalar calls inside RingSpec itself, as in inv, do not count)
    ring = RingSpec(mode, 5, 8)
    rep = _section_rep(group, ring, 1)
    watched = {"ultrastab.ultranorm_linalg", "ultrastab.presentations", "ultrastab.homrepair"}
    calls = Counter()
    for name in ENTRYWISE_SCALAR_OPS:
        def counted(self, *args, _op=getattr(RingSpec, name), _name=name):
            caller = sys._getframe(1).f_globals["__name__"]
            if caller in watched:
                calls[caller, _name] += 1
            return _op(self, *args)
        monkeypatch.setattr(RingSpec, name, counted)
    out, ledger = repair_finite_image(rep)
    assert ledger.verified and {s.method for s in ledger.steps} == {"averaging"}
    assert not calls
    # the count sees a scalar call: solve_linear divides its one pivot, w,
    # by w before inverting its unit part
    w = ring.omega_pow(1)
    assert solve_linear([[w]], [w], ring) == (ring.one,)
    assert calls["ultrastab.ultranorm_linalg", "shift_down"] == 1


@pytest.mark.parametrize("mode,p", [("fpx", 5), ("zp", 2)])
def test_repair_builds_one_ring_per_precision(mode, p, monkeypatch):
    # a repair reads its input through RingSpec.from_json and reduces through
    # with_precision; each (mode, p, K) it meets is built once
    ring = RingSpec(mode, p, 8)
    perms = ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    pres = Presentation.make(["s", "t"], [["s", "s"], ["t"] * 3, ["s", "t"] * 2])
    rng = random.Random(p)
    obj = ApproxRep(pres, ring, 3, [UMatrix.from_int_rows(ring, m) + shifted_random(ring, 3, rng, 3)
                                    for m in perms]).to_json()
    monkeypatch.setattr(local_ring, "_RINGS", {})
    made = Counter()
    post_init = RingSpec.__post_init__

    def counting(self):
        made[self.mode, self.p, self.precision] += 1
        post_init(self)
    monkeypatch.setattr(RingSpec, "__post_init__", counting)
    fixed, ledger = repair_finite_image(ApproxRep.from_json(obj))
    assert fixed.defect().saturated and len(ledger.steps) >= 2
    assert len(made) >= 3 and set(made.values()) == {1}
    assert set(made) == {(r.mode, r.p, r.precision) for r in local_ring._RINGS.values()}
