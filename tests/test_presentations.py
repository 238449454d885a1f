import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ultrastab.homrepair import _tree_section
from ultrastab.local_ring import NormValue, RingSpec
from ultrastab.presentations import (
    ApproxRep,
    CapExceeded,
    Presentation,
    PresentationError,
    Word,
    closure_of_matrices,
    word_value,
)
from ultrastab.ultranorm_linalg import UMatrix

from conftest import class_product, random_gl, shifted_random


def _image(rep, m):
    """The finite image of rep mod w^m (defect level >= m)."""
    return closure_of_matrices([img.reduce(m) for img in rep.images])


def test_word_reduction():
    w = Word.parse(["s", "s^-1"], ["s"])
    assert w.letters == ()
    w2 = Word.parse(["t", "s", "s", "s", "t^-1", "s^-1", "s^-1"], ["s", "t"])
    assert w2.letters == (2, 1, 1, 1, -2, -1, -1)
    assert (w2 * w2.inverse()).letters == ()


def test_word_parse_powers():
    w = Word.parse(["s^3", "t^-2"], ["s", "t"])
    assert w.letters == (1, 1, 1, -2, -2)
    assert w.unparse(["s", "t"]) == ["s", "s", "s", "t^-1", "t^-1"]


def test_presentation_validation():
    with pytest.raises(PresentationError):
        Presentation.make(["s", "s"], [])
    with pytest.raises(PresentationError):
        Presentation.make(["s"], [["t"]])


def test_eval_word_examples():
    ring = RingSpec("zp", 2, 8)
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    m = UMatrix.from_int_rows(ring, [[0, -1], [1, -1]])
    rep = ApproxRep(pres, ring, 2, [m])
    ident = UMatrix.identity(ring, 2)
    assert rep.eval_word(Word.identity()).rows == ident.rows
    assert rep.eval_word(Word.parse(["s", "s^-1"], ["s"])).rows == ident.rows
    assert rep.defect().saturated  # M^3 = I exactly

    # perturbed at level 3 with R = E_11: direct integer oracle
    pert = UMatrix.from_int_rows(ring, [[8, 0], [0, 0]])
    rep2 = ApproxRep(pres, ring, 2, [m + pert])
    def oracle_cube(a):
        n = 2
        def mul(x, y):
            return [[sum(x[i][t] * y[t][j] for t in range(n)) % 256
                     for j in range(n)] for i in range(n)]
        return mul(mul(a, a), a)
    cube = oracle_cube([[8, 255], [1, 255]])
    diff_vals = []
    for i in range(2):
        for j in range(2):
            d = (cube[i][j] - (1 if i == j else 0)) % 256
            if d:
                v = 0
                while d % 2 == 0:
                    d //= 2
                    v += 1
                diff_vals.append(v)
    assert rep2.defect() == NormValue.from_valuation(ring, min(diff_vals))
    assert rep2.defect().valuation == 3


def test_defect_empty_relators():
    ring = RingSpec("zp", 3, 4)
    rep = ApproxRep(Presentation.free(["a"]), ring, 1,
                    [UMatrix.from_int_rows(ring, [[2]])])
    assert rep.defect().saturated


def test_rep_dist(rng):
    ring = RingSpec("zp", 2, 8)
    pres = Presentation.free(["a", "b"])
    imgs = [random_gl(ring, 2, rng) for _ in range(2)]
    rep = ApproxRep(pres, ring, 2, imgs)
    assert rep.rep_dist(rep).saturated
    k = 3
    pert = shifted_random(ring, 2, rng, k)
    rep2 = rep.with_images([imgs[0] + pert, imgs[1]])
    assert rep.rep_dist(rep2).valuation >= k
    # conjugating by an element of G_k moves by at most p^-k
    u = shifted_random(ring, 2, rng, k).congruence_lift(k)
    rep3 = rep.with_images([u @ m @ u.inv() for m in imgs])
    assert rep.rep_dist(rep3) <= NormValue.from_valuation(ring, k)


def test_word_distance_transfer(rng):
    # dist over random words is controlled by the generator distances
    ring = RingSpec("zp", 3, 6)
    pres = Presentation.free(["a", "b"])
    imgs = [random_gl(ring, 2, rng) for _ in range(2)]
    rep1 = ApproxRep(pres, ring, 2, imgs)
    k = 2
    rep2 = rep1.with_images([m + shifted_random(ring, 2, rng, k) for m in imgs])
    bound = rep1.rep_dist(rep2)
    for _ in range(30):
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 9))]
        w = Word.make(letters)
        assert rep1.eval_word(w).dist(rep2.eval_word(w)) <= bound


def test_finite_image_cyclic():
    ring = RingSpec("zp", 2, 8)
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    m = UMatrix.from_int_rows(ring, [[0, -1], [1, -1]])
    pert = shifted_random(ring, 2, random.Random(0), 3)
    rep = ApproxRep(pres, ring, 2, [m + pert])
    C = _image(rep, 3)
    assert C.order == 3
    assert C.p_part == 0
    s = C.generator_indices[0]
    assert s != 0 and C.right[C.right[s][0]][0] == 0  # s has order 3
    assert C.inverse(s) == C.back[0][0] == C.right[s][0]


def _perm_matrix(ring, perm):
    n = len(perm)
    return UMatrix.from_int_rows(ring, [[int(perm[j] == i) for j in range(n)] for i in range(n)])


def _assert_tables_from_matrices(C, gens, classes, pairs):
    # the element matrices are the tree section of the generators, which C
    # does not keep: at each class c, right and back read the class of c x_g
    # and c x_g^-1, inverse that of c^-1, and the tree walk through right
    # that of a general product
    elements = _tree_section(C, gens)
    where = {e.rows: i for i, e in enumerate(elements)}
    assert len(where) == C.order
    inverses = [g.inv() for g in gens]
    for c in classes:
        for g, (x, xinv) in enumerate(zip(gens, inverses)):
            assert C.right[c][g] == where[(elements[c] @ x).rows]
            assert C.back[g][c] == where[(elements[c] @ xinv).rows]
        assert C.inverse(c) == where[elements[c].inv().rows]
    for i, j in pairs:
        assert class_product(C, i, j) == where[(elements[i] @ elements[j]).rows]


@pytest.mark.parametrize("perms,order", [
    ([[1, 0, 2], [1, 2, 0]], 6),                  # S3
    ([[1, 2, 3, 0], [0, 3, 2, 1]], 8),            # D4
    ([[1, 0, 2, 3], [1, 2, 3, 0]], 24),           # S4
])
def test_products_read_the_cayley_table(perms, order):
    ring = RingSpec("zp", 5, 2)
    gens = [_perm_matrix(ring, q) for q in perms]
    C = closure_of_matrices(gens)
    assert C.order == order
    _assert_tables_from_matrices(C, gens, range(order),
                                 [(i, j) for i in range(order) for j in range(order)])
    assert all(class_product(C, i, C.inverse(i)) == 0 for i in range(order))


def test_products_in_a_deep_tree():
    # (Z/3001)^x is cyclic of order 3000; with one generator the BFS tree is
    # a path deeper than the recursion limit, and inverses walk it iteratively
    ring = RingSpec("zp", 3001, 1)
    g = next(x for x in range(2, 3001)
             if all(pow(x, 3000 // q, 3001) != 1 for q in (2, 3, 5)))
    gens = [UMatrix.from_int_rows(ring, [[g]])]
    C = closure_of_matrices(gens, cap=3000)
    assert C.order == 3000
    deepest, depth = C.order - 1, 0
    c = deepest
    while c:
        c, depth = C.tree[c][0], depth + 1
    assert depth > sys.getrecursionlimit()
    rng = random.Random(3000)
    classes = [rng.randrange(3000) for _ in range(200)] + [0, 1, deepest]
    pairs = [(rng.randrange(3000), rng.randrange(3000)) for _ in range(200)]
    _assert_tables_from_matrices(C, gens, classes,
                                 pairs + [(deepest, deepest), (1, deepest), (deepest, 0)])
    assert class_product(C, deepest, C.inverse(deepest)) == 0


def test_eval_word_inverse_letters(monkeypatch):
    # a BS(2,3) relator t s^3 t^-1 s^-2 reads both inverses; the images are
    # inverted on first use, never at construction
    ring = RingSpec("zp", 3, 6)
    rng = random.Random(23)
    pres = Presentation.make(["s", "t"], [["t", "s", "s", "s", "t^-1", "s^-1", "s^-1"]])
    s, t = random_gl(ring, 3, rng), random_gl(ring, 3, rng)
    want = (t @ s @ s @ s @ t.inv() @ s.inv() @ s.inv()).rows
    calls = []
    inv = UMatrix.inv
    monkeypatch.setattr(UMatrix, "inv", lambda self: calls.append(self) or inv(self))
    rep = ApproxRep(pres, ring, 3, [s, t])
    assert calls == []
    assert rep.eval_word(pres.relators[0]).rows == want
    assert rep.eval_word(pres.relators[0]).rows == want
    assert len(calls) == 2


def test_defect_takes_one_matmul_per_letter_after_the_first(monkeypatch):
    # |r| - 1 matmuls per relator that is no power (the cube s^3 takes two
    # by squaring too), none by an identity factor, and the empty word is
    # the identity with none
    ring = RingSpec("zp", 3, 6)
    rng = random.Random(29)
    pres = Presentation.make(["s", "t"], [["s^3"], ["t", "s", "s", "s", "t^-1", "s^-2"],
                                          ["s", "t^-1"], ["t"]])
    rep = ApproxRep(pres, ring, 3, [random_gl(ring, 3, rng), random_gl(ring, 3, rng)])
    calls = []
    matmul = UMatrix.__matmul__
    monkeypatch.setattr(UMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    rep.defect()
    assert len(calls) == sum(len(r) - 1 for r in pres.relators) == 2 + 6 + 1 + 0
    calls.clear()
    assert rep.eval_word(Word.identity()).rows == UMatrix.identity(ring, 3).rows
    assert calls == []


def _counted(fn, *args):
    """fn(*args) and the number of matmuls it made."""
    calls = []
    matmul = UMatrix.__matmul__
    UMatrix.__matmul__ = lambda a, b: calls.append(1) or matmul(a, b)
    try:
        return fn(*args), len(calls)
    finally:
        UMatrix.__matmul__ = matmul


@settings(max_examples=80, deadline=None)
@given(mode=st.sampled_from(["zp", "fpx"]), p=st.sampled_from([2, 3, 5]),
       root=st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=5),
       e=st.integers(1, 40), seed=st.integers(0, 2 ** 16))
def test_word_value_of_a_power_matches_its_letters(mode, p, root, e, seed):
    # u^e is the value of its shortest root raised by binary powering: the
    # same matrix as the letter-by-letter product, in d - 1 + bitlen(f) - 1
    # + popcount(f) - 1 matmuls for a root of d letters repeated f times
    ring = RingSpec(mode, p, 6)
    rng = random.Random(seed)
    images = [random_gl(ring, 2, rng) for _ in range(2)]
    inverses = {i: m.inv() for i, m in enumerate(images)}
    w = Word.make(root * e)
    want = UMatrix.identity(ring, 2)
    for x in w.letters:
        want = want @ (images[x - 1] if x > 0 else inverses[-x - 1])
    got, matmuls = _counted(word_value, w, images, inverses, ring, 2)
    assert got.rows == want.rows
    m = len(w)
    d = next((d for d in range(1, m + 1) if m % d == 0
              and all(w.letters[i] == w.letters[i % d] for i in range(m))), 0)
    f = m // d if d else 0
    assert w.period == (w.letters[:d], f) or m == 0
    assert matmuls == (d - 1 + f.bit_length() - 1 + bin(f).count("1") - 1 if m else 0)
    assert matmuls <= max(m - 1, 0)


def test_defect_of_a_large_power_takes_logarithmic_matmuls():
    # <a | a^e> with e = 2,000,000: at most 2 bitlen(e) matmuls, where the
    # letters take e - 1.  a = [[1, 3], [0, 1]] has a^e = [[1, 3e], [0, 1]],
    # and 3 does not divide e, so the defect level is 1
    e = 2_000_000
    ring = RingSpec("zp", 3, 8)
    rep = ApproxRep(Presentation.make(["a"], [[f"a^{e}"]]), ring, 2,
                    [UMatrix.from_int_rows(ring, [[1, 3], [0, 1]])])
    defect, matmuls = _counted(rep.defect)
    assert defect.valuation == 1 and matmuls <= 2 * e.bit_length()
    assert rep.eval_word(rep.presentation.relators[0]).rows == \
        UMatrix.from_int_rows(ring, [[1, 3 * e], [0, 1]]).rows


def test_word_parse_rejects_non_string_letters():
    for tokens in ([1], ["s", None], [["s"]]):
        with pytest.raises(PresentationError, match="is not a string"):
            Word.parse(tokens, ["s"])


def test_finite_image_gl1_order2():
    ring = RingSpec("zp", 2, 8)
    pres = Presentation.make(["s"], [["s", "s"]])
    k = 4
    rep = ApproxRep(pres, ring, 1, [UMatrix.from_int_rows(ring, [[-1 + 2 ** k]])])
    C = _image(rep, k)
    assert C.order == 2 and C.p_part == 1


def test_finite_image_trivial():
    ring = RingSpec("zp", 5, 3)
    rep = ApproxRep(Presentation.make(["s"], [["s"]]), ring, 2,
                    [UMatrix.identity(ring, 2)])
    C = _image(rep, 2)
    assert C.order == 1


def test_finite_image_errors(rng):
    ring = RingSpec("zp", 2, 6)
    with pytest.raises(CapExceeded):
        closure_of_matrices([random_gl(ring, 3, rng)], cap=2)


def test_order_divides_gl_order():
    # |image| divides |GL_2(Z/2^3)| = 8^4 * (1-1/2)(1-1/4) ... spot check
    ring = RingSpec("zp", 2, 3)
    rng = random.Random(9)
    gl_order = 1
    # |GL_2(F_2)| * 2^(4*(3-1)) = 6 * 256
    gl_order = 6 * 2 ** (4 * 2)
    for _ in range(10):
        g = random_gl(ring, 2, rng)
        C = closure_of_matrices([g], cap=10 ** 5)
        assert gl_order % C.order == 0


def test_defect_iff_exact_reduction(rng):
    # defect <= p^-m exactly when the mod-w^m reduction kills every relator
    ring = RingSpec("zp", 2, 8)
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    m = UMatrix.from_int_rows(ring, [[0, -1], [1, -1]])
    for _ in range(20):
        k = rng.randrange(1, 7)
        rep = ApproxRep(pres, ring, 2, [m + shifted_random(ring, 2, rng, k)])
        dval = rep.defect().valuation
        for level in range(1, 8):
            reduced = ApproxRep(pres, ring.with_precision(level), 2,
                                [img.reduce(level) for img in rep.images])
            exact = reduced.defect().saturated
            assert exact == (dval >= level)


def test_repdist_iff_equal_reduction(rng):
    # two low-defect reps are p^-m-close exactly when their reductions agree
    ring = RingSpec("zp", 3, 6)
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    m = UMatrix.from_int_rows(ring, [[0, -1], [1, -1]])
    for _ in range(20):
        k1, k2 = rng.randrange(2, 5), rng.randrange(2, 5)
        r1 = ApproxRep(pres, ring, 2, [m + shifted_random(ring, 2, rng, k1)])
        r2 = ApproxRep(pres, ring, 2, [m + shifted_random(ring, 2, rng, k2)])
        dv = r1.rep_dist(r2)
        for level in range(1, 7):
            same = all(a.reduce(level).rows == b.reduce(level).rows
                       for a, b in zip(r1.images, r2.images))
            assert same == (dv.saturated or dv.valuation >= level)


def test_json_roundtrip():
    ring = RingSpec("fpx", 2, 4)
    pres = Presentation.make(["s", "t"], [["t", "s", "t^-1", "s^-1"]])
    imgs = [UMatrix.identity(ring, 2), UMatrix.identity(ring, 2)]
    rep = ApproxRep(pres, ring, 2, imgs)
    rt = ApproxRep.from_json(rep.to_json())
    assert rt.presentation == rep.presentation
    assert all(a.rows == b.rows for a, b in zip(rt.images, rep.images))
