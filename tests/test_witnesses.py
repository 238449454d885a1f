import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultrastab.local_ring import NormValue, RingSpec
from ultrastab.presentations import ApproxRep, CapExceeded, Presentation
from ultrastab.ultranorm_linalg import UMatrix
from ultrastab.witnesses import (
    CommutatorOracleResult,
    CyclicGroup,
    WitnessError,
    WreathGroup,
    WreathMatrixMap,
    _full_group_generators,
    build_unstable_generators,
    commutator_witness_oracle,
    cyclotomic_root_valuation,
    hdist_gl1_cyclic,
    hdist_lowerbound_diag,
    make_badestimate_rep,
    make_commutator_witness,
    make_wreath_rep,
    roots_of_unity,
    verify_claims,
    wreath_parameters,
    wreath_rep_defect_certificate,
)


def test_badestimate_defects():
    assert make_badestimate_rep(3, 1, 3, 6).defect().valuation == 2
    # lifting-the-exponent: nu_3(4^{3^4} - 1) = 1 + 4
    assert make_badestimate_rep(3, 4, 3, 12).defect().valuation == 5
    ring = RingSpec("fpx", 2, 10)
    rep = make_badestimate_rep(2, 2, ring.from_coeffs([0, 1]), 10, mode="fpx")
    assert rep.defect().valuation == 4  # (1+X)^4 = 1 + X^4


def test_badestimate_lte_oracle():
    # independent integer oracle for the defect valuations
    for i in range(1, 9):
        rep = make_badestimate_rep(3, i, 3, 12)
        value = pow(4, 3 ** i, 3 ** 12) - 1
        v = 0
        m = value % 3 ** 12
        while m and m % 3 == 0:
            m //= 3
            v += 1
        assert rep.defect().valuation == v == i + 1


def test_roots_of_unity_scan():
    ring = RingSpec("zp", 2, 6)
    assert sorted(roots_of_unity(ring, 2)) == [1, 31, 33, 63]
    ring3 = RingSpec("zp", 3, 6)
    cubes = sorted(roots_of_unity(ring3, 3))
    assert cubes == [1, 244, 487]
    for u in cubes:
        assert pow(u, 3, 3 ** 6) == 1


def _scan_roots_of_unity(ring, order):
    """The reference: every unit of the ring, raised to the order."""
    return sorted(u for u in ring.iter_all()
                  if ring.is_unit(u) and ring.pow(u, order) == ring.one)


def _check_roots_against_scan(ring, order, g):
    """The lifted roots equal the scanned ones, and so hdist_gl1_cyclic's
    minimizers and enumeration count are those of the scan."""
    scanned = _scan_roots_of_unity(ring, order)
    assert roots_of_unity(ring, order) == scanned
    dists = {u: ring.val(ring.sub(g, u)) for u in scanned}
    rep = ApproxRep(Presentation.make(["s"], [["s"] * order]), ring, 1,
                    [UMatrix(ring, 1, ((g,),))])
    hd = hdist_gl1_cyclic(rep)
    assert hd.enumeration_count == len(scanned)
    assert list(hd.minimizers) == [u for u in scanned if dists[u] == max(dists.values())]
    assert [ring.decode(u) for u in hd.to_json()["minimizers"]] == list(hd.minimizers)


# ring sizes up to 6561, so that the scan stays cheap
MAX_K = {2: 8, 3: 8, 5: 5}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["zp", "fpx"]), st.sampled_from([2, 3, 5]), st.data())
def test_roots_of_unity_lift_matches_scan(mode, p, data):
    # orders that are p-powers (m = 1), prime to p (a = 0), or mixed
    K = data.draw(st.integers(1, MAX_K[p]), label="K")
    a = data.draw(st.integers(0, 3), label="a")
    m = data.draw(st.sampled_from([m for m in (1, 2, 3, 4, 6, 8, 12) if m % p]), label="m")
    digits = data.draw(st.lists(st.integers(0, p - 1), min_size=K, max_size=K), label="g")
    digits[0] = digits[0] or 1  # a unit
    ring = RingSpec(mode, p, K)
    g = functools.reduce(ring.add, [ring.mul(ring.from_int(d), ring.omega_pow(j))
                                    for j, d in enumerate(digits)])
    _check_roots_against_scan(ring, p ** a * m, g)


@pytest.mark.parametrize("i", range(5))
def test_roots_of_unity_lift_matches_scan_z3_12(i):
    ring = RingSpec("zp", 3, 12)
    _check_roots_against_scan(ring, 3 ** i, ring.from_int(4))


def test_hdist_examples():
    rep = make_badestimate_rep(3, 1, 3, 6)
    hd = hdist_gl1_cyclic(rep)
    assert hd.value == NormValue.from_valuation(RingSpec("zp", 3, 6), 1)
    assert set(hd.minimizers) == {1, 244, 487}

    rep2 = make_badestimate_rep(2, 1, 2, 6)
    hd2 = hdist_gl1_cyclic(rep2)
    assert hd2.value.exponent == 2
    assert 63 in hd2.minimizers
    assert hd2.enumeration_count == 4


def test_fpx_minimizers_are_coefficient_lists():
    # the certificate writes elements, not the slot-packed integers
    ring = RingSpec("fpx", 3, 4)
    hd = hdist_gl1_cyclic(make_badestimate_rep(3, 1, ring.from_coeffs([0, 1]), 4, mode="fpx"))
    written = hd.to_json()["minimizers"]
    assert written[0] == [1, 0, 0, 0] and len(written) == hd.enumeration_count == 9
    assert [ring.decode(c) for c in written] == list(hd.minimizers) == roots_of_unity(ring, 3)


def test_hdist_exact_hom_input():
    # generator -> a true root of unity: distance saturated
    ring = RingSpec("zp", 3, 6)
    from ultrastab.presentations import ApproxRep, Presentation
    from ultrastab.ultranorm_linalg import UMatrix
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    rep = ApproxRep(pres, ring, 1, [UMatrix.from_int_rows(ring, [[244]])])
    assert rep.defect().saturated
    hd = hdist_gl1_cyclic(rep)
    assert hd.value.saturated


def test_instability_mechanism():
    # defect strictly decreasing, truncated Hdist constant
    prev = None
    for i in range(1, 9):
        rep = make_badestimate_rep(3, i, 3, 12)
        d = rep.defect()
        if prev is not None:
            assert d < prev
        prev = d
        assert hdist_gl1_cyclic(rep).value.exponent == 1


def test_newton_polygon_valuations():
    assert cyclotomic_root_valuation(3, 1) == Fraction(1, 2)
    assert cyclotomic_root_valuation(3, 2) == Fraction(1, 6)
    assert cyclotomic_root_valuation(5, 1) == Fraction(1, 4)
    assert cyclotomic_root_valuation(2, 2) == Fraction(1, 2)
    # the primitive 2^j-th roots at p = 2 sit at 1/2^(j-1)
    assert [cyclotomic_root_valuation(2, j) for j in range(1, 6)] == [
        Fraction(1, 2 ** (j - 1)) for j in range(1, 6)]


def test_lowerbound_diag():
    assert hdist_lowerbound_diag(3, 1, 3, RingSpec("zp", 3, 6)).value.exponent == 1
    assert hdist_lowerbound_diag(3, 2, 9, RingSpec("zp", 3, 8)).value.exponent == 2
    ring = RingSpec("fpx", 2, 6)
    assert hdist_lowerbound_diag(2, 3, ring.from_coeffs([0, 1]), ring).value.exponent == 1
    # p = 2 reads the root -1 exactly: min(|2|, |2 + 2|) = 2^-2, and
    # min(|6|, |6 + 2|) = 2^-3, past the root's own valuation 1
    ring = RingSpec("zp", 2, 12)
    assert hdist_lowerbound_diag(2, 1, 2, ring).value.exponent == 2
    assert hdist_lowerbound_diag(2, 3, 6, ring).value.exponent == 3
    assert hdist_lowerbound_diag(2, 3, 4, ring).value.exponent == 2


def test_wreath_group_axioms(rng):
    inner = WreathGroup(CyclicGroup(3), 3)
    outer = WreathGroup(inner, 4)

    def rand_inner():
        return (tuple(rng.randrange(3) for _ in range(3)), rng.randrange(3))

    def rand_outer():
        return (tuple(rand_inner() for _ in range(4)), rng.randrange(4))

    e = outer.identity()
    for _ in range(100):
        g, h, k = rand_outer(), rand_outer(), rand_outer()
        assert outer.mul(outer.mul(g, h), k) == outer.mul(g, outer.mul(h, k))
        assert outer.mul(g, outer.inv(g)) == e
        assert outer.mul(e, g) == g


def test_unstable_generators_identities():
    for p, i in [(2, 1), (2, 2), (3, 1)]:
        gens = build_unstable_generators(p, i)
        inner = gens.inner
        # kappa = [gamma, zeta] = diagonal generator (checked in builder);
        # also: commutator of rho with itself is the identity
        outer = gens.outer
        assert outer.commutator(gens.rho, gens.rho) == outer.identity()
        # delta has order p^i
        d = gens.delta
        acc = d
        for _ in range(p ** i - 1):
            acc = outer.mul(acc, d)
        assert acc == outer.identity()


def test_delta_projections():
    # the product defining delta_i projects to the identity in every other
    # block group: kappa_i has trivial projections there, so the conjugate
    # product telescopes to nothing
    for i, j in [(1, 2), (2, 1), (1, 3)]:
        gi = build_unstable_generators(2, i)
        gj = build_unstable_generators(2, j)
        outer_j = gj.outer
        _, ti = wreath_parameters(i)
        ri, _ = wreath_parameters(i)
        acc = outer_j.identity()
        kappa_j_proj = outer_j.identity()  # pr_j(kappa_i) = id for j != i
        for m in range(ri):
            etam = outer_j.shift(m)
            acc = outer_j.mul(acc, outer_j.conj(etam, kappa_j_proj))
        assert acc == outer_j.identity()


def test_claims_distinctness_values():
    r1, t1 = wreath_parameters(1)
    assert (r1, t1) == (4, 1)
    assert len({0 % r1, t1 % r1, (-t1) % r1}) == 3
    report = verify_claims(3, p=2)
    assert report.passed
    assert report.commutator_checks == 9


def test_claims_cap():
    with pytest.raises(CapExceeded):
        verify_claims(9, p=2)


def test_wreath_rep_and_certificate():
    gens = build_unstable_generators(2, 1)
    rep = make_wreath_rep(gens, 2, 12)
    assert rep.n == 8
    for img in rep.images:
        assert img.is_gl()
    cert = wreath_rep_defect_certificate(gens, 2, 12)
    assert cert.exact and cert.group_order == 16384 and cert.checked_pairs == 16
    assert cert.defect_val == 3 == cert.structural_bound_val == cert.probe_val
    assert cert.hdist_bound.value.exponent == 2

    cert3 = wreath_rep_defect_certificate(build_unstable_generators(3, 1), 3, 12)
    assert cert3.degree == 12
    assert cert3.defect_val == 2
    # exact at every index, where the block group is far too large to list
    for p, i, x, K, val in [(2, 2, 2, 12, 4), (3, 1, 3, 12, 2), (5, 1, 5, 8, 2),
                            (3, 2, 3, 10, 3)]:
        gens = build_unstable_generators(p, i)
        c = wreath_rep_defect_certificate(gens, x, K)
        assert c.exact and c.checked_pairs == 16
        assert c.group_order == gens.outer.order()
        assert c.defect_val == c.structural_bound_val == c.probe_val == val


def _enumerate_wreath_group(gens):
    """Every element of the block group, by BFS over its generators."""
    outer = gens.outer
    seen = {outer.identity()}
    frontier = [outer.identity()]
    while frontier:
        nxt = []
        for g in frontier:
            for s in _full_group_generators(gens):
                h = outer.mul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return list(seen)


def test_wreath_defect_matches_enumeration():
    # the oracle for the carry lemma: over all 16384 elements, each
    # generator of the block group (and rho) against every element, which
    # bounds every pair by the ultrametric induction
    p, i, x, K = 2, 1, 2, 12
    gens = build_unstable_generators(p, i)
    outer = gens.outer
    wmap = WreathMatrixMap(p, i, x, RingSpec("zp", p, K))
    elements = _enumerate_wreath_group(gens)
    assert len(elements) == outer.order() == 16384
    images = {g: wmap.image(g) for g in elements}
    vals = {(images[s] @ images[h]).dist_val(images[outer.mul(s, h)])
            for s in _full_group_generators(gens) + [gens.rho] for h in elements}
    cert = wreath_rep_defect_certificate(gens, x, K)
    assert vals == {K, cert.structural_bound_val}
    assert min(vals) == 3 == cert.defect_val


def test_wreath_certificate_rejects_shifted_image(monkeypatch):
    # an off-by-one block shift in every image is caught by the re-measurement
    image = WreathMatrixMap.image
    monkeypatch.setattr(WreathMatrixMap, "image",
                        lambda self, elem: image(self, (elem[0], elem[1] + 1)))
    with pytest.raises(WitnessError):
        wreath_rep_defect_certificate(build_unstable_generators(2, 1), 2, 12)


@functools.lru_cache(maxsize=None)
def _wreath_setting(p, i, x, K):
    gens = build_unstable_generators(p, i)
    wmap = WreathMatrixMap(p, i, x, RingSpec("zp", p, K))
    return gens, wmap, wreath_rep_defect_certificate(gens, x, K).structural_bound_val


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (3, 1), (5, 1)]), st.integers(1, 2),
       st.integers(1, 4), st.randoms(use_true_random=False))
def test_wreath_random_pairs_obey_carry_lemma(pi, vx, unit, rnd):
    # every pair of the block group has distance K or the structural value
    p, i = pi
    K = 12
    x = p ** vx * (unit if unit % p else unit + 1)
    gens, wmap, structural = _wreath_setting(p, i, x, K)
    q = p ** i

    def random_elem():
        tup = tuple((tuple(rnd.randrange(q) for _ in range(q)), rnd.randrange(q))
                    for _ in range(gens.r))
        return (tup, rnd.randrange(gens.r))

    g, h = random_elem(), random_elem()
    v = (wmap.image(g) @ wmap.image(h)).dist_val(wmap.image(gens.outer.mul(g, h)))
    assert v in (K, structural)


def test_wreath_rep_dim_cap():
    with pytest.raises(CapExceeded):
        make_wreath_rep(build_unstable_generators(2, 2), 2, 12)  # degree 4 * 64 = 256 > 128


def test_commutator_witness():
    ring = RingSpec("zp", 2, 3)
    A, B = make_commutator_witness(ring, 2, 1)
    comm = (A @ B) - (B @ A)
    assert comm.min_valuation() == 2
    res = commutator_witness_oracle(ring, 2, 1)
    assert res.value.exponent == 1 and res.feasible_level == 1

    # a = K: the witness matrices vanish; identity pair commutes exactly
    ring2 = RingSpec("zp", 2, 2)
    res2 = commutator_witness_oracle(ring2, 2, 2)
    assert res2.value.saturated


def _reference_ball(center, level):
    """Every matrix congruent to center mod w^level."""
    ring, n = center.ring, center.n
    offsets = [x for x in ring.iter_all() if ring.val(x) >= level]
    for combo in itertools.product(offsets, repeat=n * n):
        yield UMatrix(ring, n, tuple(
            tuple(ring.add(center.rows[i][j], combo[i * n + j]) for j in range(n))
            for i in range(n)))


def _reference_commutator_oracle(ring, n, a):
    """The full-scan search: every pair of each ball pair in order, two
    products per pair, until the first commuting invertible pair."""
    A, B = make_commutator_witness(ring, n, a)
    ident = UMatrix.identity(ring, n)
    ca, cb = ident + A, ident + B
    K = ring.precision
    for level in range(K, -1, -1):
        second = [b2 for b2 in _reference_ball(cb, level) if b2.is_gl()]
        for b1 in _reference_ball(ca, level):
            if b1.is_gl() and any((b1 @ b2).rows == (b2 @ b1).rows for b2 in second):
                return CommutatorOracleResult(NormValue.from_valuation(ring, level), level)
    raise WitnessError("even the radius-1 ball contains no commuting pair")


# (p, K, n, a): the four shapes whose level a is below K, then shapes at level K
LEMMA_SHAPES = [(2, 3, 2, 1), (2, 4, 2, 1), (2, 5, 2, 2), (3, 3, 2, 1),
                (2, 3, 2, 2), (3, 2, 2, 1), (5, 2, 2, 1), (2, 2, 3, 1), (3, 3, 2, 2),
                (5, 3, 2, 2), (2, 4, 3, 2), (3, 4, 2, 2), (2, 5, 2, 3)]


@pytest.mark.parametrize("mode", ["zp", "fpx"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_commutator_oracle_matches_full_scan(mode, p):
    # the lemma (level a when 2a < K, else K) against the exhaustive search
    for _, K, n, a in (s for s in LEMMA_SHAPES if s[0] == p):
        ring = RingSpec(mode, p, K)
        got = commutator_witness_oracle(ring, n, a)
        assert got == _reference_commutator_oracle(ring, n, a), (mode, p, K, n, a)
        assert got.feasible_level == (a if 2 * a < K else K)


def test_commutator_oracle_matches_full_scan_default_cap():
    # the shape the former pair cap was sized for, now with no cap at all
    ring = RingSpec("zp", 2, 4)
    got = commutator_witness_oracle(ring, 2, 1)
    assert got == _reference_commutator_oracle(ring, 2, 1)
    assert got.feasible_level == 1
    assert got.value == NormValue.from_valuation(ring, 1)


def test_commutator_witness_odd_p():
    ring = RingSpec("zp", 3, 2)
    A, B = make_commutator_witness(ring, 2, 1)
    assert ((A @ B) - (B @ A)).min_valuation() == 2
    res = commutator_witness_oracle(ring, 2, 1)
    assert res.value.exponent >= 1
