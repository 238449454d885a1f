import random
from fractions import Fraction

import pytest

from ultrastab.aux_families import (
    DefectTooLarge,
    FamilyError,
    FiltrationMetricSpec,
    FiltrationRep,
    TreeAutOps,
    TriangularOps,
    filtration_dist,
    split_section_repair,
)
from ultrastab.presentations import Presentation

Z2 = Presentation.make(["a", "b"], [["a", "b", "a^-1", "b^-1"]])


def _random_tri(ops, rng):
    n, m = ops.n, ops.m
    rows = [[0] * n for _ in range(n)]
    units = [u for u in range(1, m) if _coprime(u, m)]
    for i in range(n):
        rows[i][i] = rng.choice(units)
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(m)
    return tuple(tuple(r) for r in rows)


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


def _random_aut(ops, rng, d=None):
    d = ops.depth if d is None else d
    if d == 0:
        return ()
    perm = tuple(rng.sample(range(ops.q), ops.q))
    return (perm, tuple(_random_aut(ops, rng, d - 1) for _ in range(ops.q)))


def test_triangular_ops(rng):
    ops = TriangularOps(3, 4)
    for _ in range(30):
        g = _random_tri(ops, rng)
        h = _random_tri(ops, rng)
        assert ops.mul(g, ops.inv(g)) == ops.identity()
        assert ops.mul(ops.inv(g), g) == ops.identity()
        assert ops.agree_level(g, g) == 3
        gh = ops.mul(g, h)
        ops.validate(gh)


def test_tree_ops(rng):
    ops = TreeAutOps(2, 4)
    e = ops.identity()
    for _ in range(30):
        g = _random_aut(ops, rng)
        h = _random_aut(ops, rng)
        assert ops.mul(g, ops.inv(g)) == e
        assert ops.mul(ops.mul(g, h), ops.inv(h)) == g
        assert ops.agree_level(g, g) == 4
        k = ops.agree_level(g, h)
        assert 0 <= k <= 4
        assert ops.project(g, 2) == ops.project(ops.embed(ops.project(g, 2)), 2)


def test_filtration_dist_examples(rng):
    spec = FiltrationMetricSpec(kind="triangular", modulus=4, dimension=3)
    ops = TriangularOps(3, 4)
    g = _random_tri(ops, rng)
    assert filtration_dist(g, g, spec).below_finest
    # equal first column only
    h = [list(r) for r in g]
    h[0][1] = (h[0][1] + 1) % 4
    d = filtration_dist(g, tuple(tuple(r) for r in h), spec)
    assert d.level == 1 and d.value == Fraction(1, 2)

    tspec = FiltrationMetricSpec(kind="tree", alphabet=2, depth=4)
    tops = TreeAutOps(2, 4)
    a = _random_aut(tops, rng)
    perm, children = a
    kids = list(children)
    kids[0] = (tuple(reversed(kids[0][0])), kids[0][1])
    b = (perm, tuple(kids))
    d2 = filtration_dist(a, b, tspec)
    assert d2.level in (1, 2)  # they agree at level 1 at least


def test_metric_is_ultrametric(rng):
    spec = FiltrationMetricSpec(kind="tree", alphabet=2, depth=3)
    tops = TreeAutOps(2, 3)
    for _ in range(50):
        g, h, k = (_random_aut(tops, rng) for _ in range(3))
        dgk = filtration_dist(g, k, spec)
        dgh = filtration_dist(g, h, spec)
        dhk = filtration_dist(h, k, spec)
        assert dgk.value <= max(dgh.value, dhk.value)


def test_split_section_triangular(rng):
    spec = FiltrationMetricSpec(kind="triangular", modulus=4, dimension=4)
    ops = TriangularOps(4, 4)
    done = 0
    while done < 25:
        u = _random_tri(ops, rng)
        a, b = u, ops.mul(u, u)
        k = rng.randrange(1, 4)
        bp = [list(r) for r in b]
        j = rng.randrange(k, 4)
        bp[rng.randrange(0, j + 1)][j] += 2
        bp = tuple(tuple(x % 4 for x in r) for r in bp)
        try:
            rep = FiltrationRep(Z2, spec, [a, bp])
        except FamilyError:
            continue
        d = rep.defect()
        if d.below_finest or d.level == 0:
            continue
        fixed, moved = split_section_repair(rep)
        assert fixed.defect().below_finest
        assert moved.below_finest or moved.level >= d.level
        done += 1


def test_split_section_tree(rng):
    spec = FiltrationMetricSpec(kind="tree", alphabet=2, depth=4)
    tops = TreeAutOps(2, 4)
    done = 0
    while done < 25:
        g = _random_aut(tops, rng)
        k = rng.randrange(1, 4)

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

        imgs = [g, perturb(tops.mul(g, g), k)]
        rep = FiltrationRep(Z2, spec, imgs)
        d = rep.defect()
        if d.below_finest or d.level == 0:
            continue
        assert d.level >= k
        fixed, moved = split_section_repair(rep)
        assert fixed.defect().below_finest
        assert moved.below_finest or moved.level >= d.level
        done += 1


def test_exact_rep_unchanged(rng):
    spec = FiltrationMetricSpec(kind="triangular", modulus=4, dimension=3)
    ops = TriangularOps(3, 4)
    u = _random_tri(ops, rng)
    rep = FiltrationRep(Z2, spec, [u, ops.mul(u, u)])
    fixed, moved = split_section_repair(rep)
    assert moved.below_finest
    assert fixed.images == rep.images


def test_defect_too_large():
    spec = FiltrationMetricSpec(kind="triangular", modulus=4, dimension=2)
    # a^3 has diagonal entry 3^3 = 3 mod 4: the relator fails at the full scale
    cube = Presentation.make(["a"], [["a", "a", "a"]])
    rep = FiltrationRep(cube, spec, [((3, 1), (0, 1))])
    assert rep.defect().level == 0
    with pytest.raises(DefectTooLarge):
        split_section_repair(rep)


def test_json_roundtrip(rng):
    spec = FiltrationMetricSpec(kind="tree", alphabet=2, depth=3)
    tops = TreeAutOps(2, 3)
    g = _random_aut(tops, rng)
    rep = FiltrationRep(Z2, spec, [g, tops.inv(g)])
    rt = FiltrationRep.from_json(rep.to_json())
    assert rt.images == rep.images
    assert rt.spec == rep.spec
