"""Instability witnesses and their certifying oracles.

The generators here realize three mechanisms: the cyclic maps
k -> (1+x)^k whose defect shrinks with the exponent while their distance
to every homomorphism stays fixed; the two-generator subgroup of a
product of iterated wreath products that carries those cyclic maps into
bounded-degree matrix representations; and the commuting-pair witness
showing the commutator equation only admits a quadratic estimate.  Every
reported number is exact and re-checkable from the certificate: the
complete list of roots of unity at the working precision, lifted from
one level of w to the next (ExactTruncated), an exact cyclotomic
computation (ExtensionLowerBound), or, for the wreath
defect, the carry lemma of wreath_rep_defect_certificate, whose
hypotheses are re-measured at every call with no enumeration, sampling
or seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .local_ring import NormValue, RingSpec
from .presentations import ApproxRep, CapExceeded, Presentation
from .ultranorm_linalg import UMatrix

DEFAULT_ENUM_CAP = 1 << 24
DEFAULT_DIM_CAP = 128
DEFAULT_WREATH_INDEX_CAP = 4


class WitnessError(RuntimeError):
    pass


class P2Unsupported(WitnessError):
    pass


# ---------------------------------------------------------------------------
# Cyclic bad-estimate representations
# ---------------------------------------------------------------------------


def make_badestimate_rep(p: int, i: int, x: int, K: int,
                         mode: str = "zp") -> ApproxRep:
    """The rank-one map of a cyclic p^i group sending the generator to 1+x.

    x is a raw ring element of valuation >= 1; the defect equals
    |(1+x)^{p^i} - 1| and is checked against p^{-i}|x| (mixed
    characteristic) respectively |x|^{p^i} (equal characteristic).
    """
    ring = RingSpec.of(mode, p, K)
    vx = ring.val(x)
    if vx < 1 or vx >= K:
        raise WitnessError("x must have valuation in [1, K)")
    if K <= i + vx:
        raise WitnessError("precision too small to see the defect")
    one_plus_x = ring.add(ring.one, x)
    pres = Presentation.make(["s"], [["s"] * (p ** i)])
    rep = ApproxRep(pres, ring, 1, [UMatrix(ring, 1, ((one_plus_x,),))])
    d = rep.defect()
    if ring.is_mixed:
        bound = NormValue.from_valuation(ring, i + vx)
    else:
        bound = NormValue.from_valuation(ring, vx * p ** i)
    if not d <= bound:
        raise WitnessError("defect exceeds its certified bound")
    return rep


_ROOT_CACHE: Dict[Tuple[RingSpec, int], List[int]] = {}


def roots_of_unity(ring: RingSpec, order: int, cap: int = DEFAULT_ENUM_CAP) -> List[int]:
    """All units u with u^order = 1 in o/w^K, sorted, lifted level by level.

    A root mod w^{k+1} reduces to a root mod w^k, so lifting each root u
    mod w^k (the representative with no digit at or above k) to the p
    candidates u + c w^k and keeping those with u^order = 1 mod w^{k+1}
    finds every root, from the one root 0 of the zero ring o/w^0.  Cost:
    p * sum_{k<K} R_k powers of O(log order) multiplications, R_k the
    number of roots mod w^k (at most R_K), against p^K for a scan of the
    ring.  The cap still bounds the ring size p^K, so whether a call
    exceeds it does not depend on the cache of earlier (ring, order) calls.
    """
    if ring.size() > cap:
        raise CapExceeded(f"ring of size {ring.size()} exceeds enumeration cap")
    got = _ROOT_CACHE.get((ring, order))
    if got is not None:
        return list(got)
    roots = [ring.zero]
    for k in range(ring.precision):
        # a unit's digit at w^0 is nonzero (this also settles order 0)
        digits = [ring.mul(ring.from_int(c), ring.omega_pow(k))
                  for c in range(k == 0, ring.p)]
        roots = [v for u in roots for v in (ring.add(u, d) for d in digits)
                 if ring.val(ring.sub(ring.pow(v, order), ring.one)) > k]
    out = sorted(roots)
    _ROOT_CACHE[(ring, order)] = out
    return list(out)


@dataclass(frozen=True)
class HdistCertificate:
    """A certified distance-to-homomorphisms statement.

    ExactTruncated: the value is the exact minimum over the enumerated
    homomorphisms at precision K, with the minimizers recorded as raw
    elements of ring and written through ring.encode.
    ExtensionLowerBound: the value bounds the distance below using exact
    cyclotomic valuations (it refers to the untruncated ring of integers).
    """

    mode: str
    value: NormValue
    minimizers: Tuple[int, ...] = ()
    enumeration_count: int = 0
    cyclotomic_data: Tuple[Tuple[int, Fraction], ...] = ()
    ring: Optional[RingSpec] = None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "value": self.value.encode(),
            "minimizers": [self.ring.encode(u) for u in self.minimizers],
            "enumeration_count": self.enumeration_count,
            "cyclotomic_data": [[j, [v.numerator, v.denominator]]
                                for j, v in self.cyclotomic_data],
        }


def hdist_gl1_cyclic(rep: ApproxRep, cap: int = DEFAULT_ENUM_CAP) -> HdistCertificate:
    """Exact truncated distance from a rank-one cyclic map to homomorphisms.

    Every homomorphism sends the generator to a root of unity u of order
    dividing the relator length; for each u the distance over the whole
    cyclic group is |(1+x) - u| because (w^k - 1) is divisible by (w - 1).
    """
    if rep.n != 1 or len(rep.presentation.generators) != 1:
        raise WitnessError("exact enumeration needs a rank-one cyclic input")
    if len(rep.presentation.relators) != 1:
        raise WitnessError("need exactly one relator s^N")
    ring = rep.ring
    order = len(rep.presentation.relators[0].letters)
    g = rep.images[0].rows[0][0]
    units = roots_of_unity(ring, order, cap=cap)
    best: Optional[NormValue] = None
    minimizers: List[int] = []
    for u in units:
        d = ring.norm(ring.sub(g, u))
        if best is None or d < best:
            best = d
            minimizers = [u]
        elif d == best:
            minimizers.append(u)
    if best is None:
        raise WitnessError("no roots of unity found; the unit group is broken")
    return HdistCertificate(mode="ExactTruncated", value=best,
                            minimizers=tuple(sorted(minimizers)),
                            enumeration_count=len(units), ring=ring)


def _binomial_row(m: int) -> List[int]:
    row = [1]
    for k in range(m):
        row.append(row[-1] * (m - k) // (k + 1))
    return row


def cyclotomic_root_valuation(p: int, j: int) -> Fraction:
    """Valuation of xi - 1 for a primitive p^j-th root of unity xi.

    Computed from the Newton polygon of Phi_{p^j}(1 + t): the polygon is a
    single segment from (0, 1) to (p^{j-1}(p-1), 0), so every root has
    valuation 1 / (p^{j-1}(p-1)).  The polygon itself is recomputed here
    rather than assumed.
    """
    deg = p ** (j - 1) * (p - 1)
    # Phi_{p^j}(X) = sum_{m=0}^{p-1} X^{m p^{j-1}}; substitute X = 1 + t.
    coeffs = [0] * (deg + 1)
    for m in range(p):
        e = m * p ** (j - 1)
        row = _binomial_row(e)
        for t, c in enumerate(row):
            coeffs[t] += c
    points = []
    for t, c in enumerate(coeffs):
        if c == 0:
            continue
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        points.append((t, v))
    hull = _lower_hull(points)
    # slopes of the hull are the negatives of root valuations
    vals = set()
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        vals.add(Fraction(y0 - y1, x1 - x0))
    if vals != {Fraction(1, deg)}:
        raise WitnessError(f"unexpected Newton polygon for Phi_{p}^{j}")
    return Fraction(1, deg)


def _lower_hull(points: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    pts = sorted(points)
    hull: List[Tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (pt[0] - x0) >= (pt[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def hdist_lowerbound_diag(p: int, i: int, x: int, ring: RingSpec) -> HdistCertificate:
    """Lower bound for the distance of the scalar-diagonal cyclic map.

    Valid for every matrix degree: any homomorphic image of the generator
    has eigenvalues among p^j-th roots of unity in an extension field, and
    the distance is at least min over roots xi of |(1+x) - xi|.  In equal
    characteristic the only root is 1 and the bound is |x| exactly; for p
    odd the primitive-root distances come from the Newton polygon.
    """
    vx = ring.val(x)
    if vx < 1 or vx >= ring.precision:
        raise WitnessError("x must have valuation in [1, K)")
    if not ring.is_mixed:
        return HdistCertificate(mode="ExtensionLowerBound",
                                value=NormValue.from_valuation(ring, vx))
    if p == 2:
        raise P2Unsupported("p = 2 is served by the exact truncated analysis")
    # distance to xi = 1 is |x|; to a primitive p^j-th root it is |xi - 1|
    # exactly, the valuations being distinct.  The nearest root minimizes
    # the norm, i.e. maximizes the exponent.
    data = []
    best = Fraction(vx)
    for j in range(1, i + 1):
        v = cyclotomic_root_valuation(p, j)
        data.append((j, v))
        if v > best:
            best = v
    return HdistCertificate(mode="ExtensionLowerBound",
                            value=NormValue(ring.p, ring.precision, best, False),
                            cyclotomic_data=tuple(data))


# ---------------------------------------------------------------------------
# Iterated wreath products
# ---------------------------------------------------------------------------


class CyclicGroup:
    """Z/nZ with elements plain ints in [0, n)."""

    def __init__(self, n: int):
        self.n = n

    def identity(self):
        return 0

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    def order(self) -> int:
        return self.n


class WreathGroup:
    """base wr C_top, elements (tuple of base elements, shift).

    The shift acts by (b . y)_j = y_{j+b}, so conjugating a tuple by the
    shift generator moves entry 1 into slot 0.
    """

    def __init__(self, base, top: int):
        self.base = base
        self.top = top

    def identity(self):
        e = self.base.identity()
        return ((e,) * self.top, 0)

    def mul(self, g, h):
        x, b = g
        y, c = h
        base = self.base
        top = self.top
        tup = tuple(base.mul(x[j], y[(j + b) % top]) for j in range(top))
        return (tup, (b + c) % top)

    def inv(self, g):
        x, b = g
        base = self.base
        top = self.top
        tup = tuple(base.inv(x[(j - b) % top]) for j in range(top))
        return (tup, (-b) % top)

    def conj(self, g, h):
        return self.mul(self.mul(g, h), self.inv(g))

    def commutator(self, g, h):
        return self.mul(self.mul(g, h), self.mul(self.inv(g), self.inv(h)))

    def order(self) -> int:
        return self.base.order() ** self.top * self.top

    def embed_at(self, elem, slot: int):
        e = self.base.identity()
        tup = tuple(elem if j == slot else e for j in range(self.top))
        return (tup, 0)

    def shift(self, amount: int = 1):
        e = self.base.identity()
        return ((e,) * self.top, amount % self.top)

    def diagonal(self, elem):
        return ((elem,) * self.top, 0)


def wreath_parameters(i: int) -> Tuple[int, int]:
    """Block count r_i and offset t_i for the two-generator embedding.

    The residue-distinctness conditions force, for every j, that -t_i and
    t_j - t_i avoid {0, t_j} mod r_j.  With t_1 = 1, r_1 = 4 (which pins
    the index-1 block group at order 16384) that demands t_i == 2 mod 4
    for i >= 2; taking t_i = 2(2^i - 1) and r_i = 2^{2i+2} then keeps all
    four residues in distinct classes, as verify_claims rechecks.
    """
    if i == 1:
        return 4, 1
    return 1 << (2 * i + 2), 2 * ((1 << i) - 1)


@dataclass(frozen=True)
class UnstableGenerators:
    """The named elements of (C_{p^i} wr C_{p^i}) wr C_{r_i} used throughout."""

    p: int
    i: int
    r: int
    t: int
    inner: WreathGroup   # C_{p^i} wr C_{p^i}
    outer: WreathGroup   # inner wr C_{r_i}
    gamma: tuple
    zeta: tuple
    kappa: tuple
    rho: tuple
    eta: tuple
    delta: tuple


def build_unstable_generators(p: int, i: int,
                              index_cap: int = DEFAULT_WREATH_INDEX_CAP
                              ) -> UnstableGenerators:
    """Construct and verify the six named wreath elements at index i."""
    if i < 1 or i > index_cap:
        raise CapExceeded(f"wreath index {i} outside cap {index_cap}")
    q = p ** i
    r, t = wreath_parameters(i)
    cyc = CyclicGroup(q)
    inner = WreathGroup(cyc, q)
    outer = WreathGroup(inner, r)

    gamma = (tuple((-j) % q for j in range(q)), 0)
    zeta = inner.shift()
    kappa = inner.commutator(gamma, zeta)
    if kappa != inner.diagonal(1):
        raise WitnessError("kappa is not the diagonal generator")

    e_inner = inner.identity()
    rho_tup = tuple(zeta if j == 0 else (gamma if j == t else e_inner)
                    for j in range(r))
    rho = (rho_tup, 0)
    eta = outer.shift()

    kappa_out = outer.embed_at(kappa, 0)
    delta = outer.identity()
    for j in range(r):
        etaj = outer.shift(j)
        delta = outer.mul(delta, outer.conj(etaj, kappa_out))
    if delta != ((inner.diagonal(1),) * r, 0):
        raise WitnessError("delta is not the double diagonal generator")

    return UnstableGenerators(p=p, i=i, r=r, t=t, inner=inner, outer=outer,
                              gamma=gamma, zeta=zeta, kappa=kappa,
                              rho=rho, eta=eta, delta=delta)


@dataclass
class ClaimsReport:
    max_i: int
    p: int
    distinctness_checks: int = 0
    commutator_checks: int = 0
    passed: bool = False

    def to_json(self) -> dict:
        return {
            "max_i": self.max_i,
            "p": self.p,
            "distinctness_checks": self.distinctness_checks,
            "commutator_checks": self.commutator_checks,
            "passed": self.passed,
        }


def verify_claims(max_i: int, p: int = 2,
                  index_cap: int = DEFAULT_WREATH_INDEX_CAP) -> ClaimsReport:
    """Check the residue-distinctness conditions and the commutator law.

    For every i: 0, t_i, -t_i are distinct mod r_i; for i != j the four
    residues 0, t_j, -t_i, t_j - t_i are distinct mod r_j.  For all i, j
    up to max_i the projection of [eta^{t_i} rho eta^{-t_i}, rho] to the
    j-th block group equals that of kappa_i.  Any failure is a hard error.
    """
    if not 1 <= max_i <= index_cap:
        raise CapExceeded(f"max_i {max_i} outside [1, {index_cap}]")
    report = ClaimsReport(max_i=max_i, p=p)
    gens = {i: build_unstable_generators(p, i, index_cap=index_cap)
            for i in range(1, max_i + 1)}
    for i in range(1, max_i + 1):
        ri, ti = wreath_parameters(i)
        vals = {0 % ri, ti % ri, (-ti) % ri}
        if len(vals) != 3:
            raise WitnessError(f"distinctness fails at i={i}")
        report.distinctness_checks += 1
        for j in range(1, max_i + 1):
            if i == j:
                continue
            rj, tj = wreath_parameters(j)
            vals = {0 % rj, tj % rj, (-ti) % rj, (tj - ti) % rj}
            if len(vals) != 4:
                raise WitnessError(f"distinctness fails at (i,j)=({i},{j})")
            report.distinctness_checks += 1
    for i in range(1, max_i + 1):
        _, ti = wreath_parameters(i)
        for j in range(1, max_i + 1):
            G = gens[j]
            outer = G.outer
            etat = outer.shift(ti)
            lhs = outer.commutator(outer.conj(etat, G.rho), G.rho)
            if i == j:
                expected = outer.embed_at(G.kappa, 0)
            else:
                expected = outer.identity()
            if lhs != expected:
                raise WitnessError(f"commutator claim fails at (i,j)=({i},{j})")
            report.commutator_checks += 1
    report.passed = True
    return report


# ---------------------------------------------------------------------------
# Matrix images of the wreath generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonoMat:
    """A monomial matrix sum_j scale[j] E_{perm[j], j} over a ring."""

    ring: RingSpec
    perm: Tuple[int, ...]
    scale: Tuple[int, ...]

    def __matmul__(self, other: "MonoMat") -> "MonoMat":
        mul = self.ring.mul
        perm = tuple(self.perm[t] for t in other.perm)
        scale = tuple(mul(self.scale[other.perm[j]], other.scale[j])
                      for j in range(len(self.perm)))
        return MonoMat(self.ring, perm, scale)

    def dist_val(self, other: "MonoMat") -> int:
        ring = self.ring
        best = ring.precision
        for j in range(len(self.perm)):
            if self.perm[j] == other.perm[j]:
                v = ring.val(ring.sub(self.scale[j], other.scale[j]))
            else:
                v = min(ring.val(self.scale[j]), ring.val(other.scale[j]))
            if v < best:
                best = v
                if best == 0:
                    return 0
        return best

    def to_umatrix(self) -> UMatrix:
        n = len(self.perm)
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            rows[self.perm[j]][j] = self.scale[j]
        return UMatrix(self.ring, n, tuple(tuple(r) for r in rows))


class WreathMatrixMap:
    """The block-monomial image of (C_q wr C_q) wr C_r in degree q*r.

    Tuples map to (block-)diagonal matrices of powers of 1+x and shifts to
    (block-)cycle permutation matrices; every image is monomial, so group
    operations and distances cost O(q*r).
    """

    def __init__(self, p: int, i: int, x: int, ring: RingSpec):
        self.p = p
        self.i = i
        self.q = p ** i
        self.r, self.t = wreath_parameters(i)
        self.ring = ring
        self.x = x
        base = ring.add(ring.one, x)
        self.powers = [ring.one]
        for _ in range(self.q - 1):
            self.powers.append(ring.mul(self.powers[-1], base))

    @property
    def degree(self) -> int:
        return self.q * self.r

    def inner_image(self, elem) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Monomial data of the image of an element of C_q wr C_q."""
        tup, b = elem
        q = self.q
        perm = tuple((j - b) % q for j in range(q))
        scale = tuple(self.powers[tup[(j - b) % q]] for j in range(q))
        return perm, scale

    def image(self, elem) -> MonoMat:
        tup, c = elem
        q, r = self.q, self.r
        perm = [0] * (q * r)
        scale = [self.ring.one] * (q * r)
        for blk in range(r):
            src_blk = (blk - c) % r
            iperm, iscale = self.inner_image(tup[src_blk])
            for j in range(q):
                col = blk * q + j
                perm[col] = src_blk * q + iperm[j]
                scale[col] = iscale[j]
        return MonoMat(self.ring, tuple(perm), tuple(scale))


def make_wreath_rep(gens: UnstableGenerators, x: int, K: int,
                    dim_cap: int = DEFAULT_DIM_CAP) -> ApproxRep:
    """Two-generator matrix representation carrying the cyclic witness.

    Generators rho and eta of the index-i wreath group (gens, from
    build_unstable_generators) map to block monomial matrices of degree
    p^i * r_i; the presentation is free (the source group is not finitely
    presented) and all defect statements live in the accompanying
    certificate.
    """
    ring = RingSpec.of("zp", gens.p, K)
    wmap = WreathMatrixMap(gens.p, gens.i, x, ring)
    if wmap.degree > dim_cap:
        raise CapExceeded(f"matrix degree {wmap.degree} exceeds cap {dim_cap}")
    pres = Presentation.free(["rho", "eta"])
    images = [wmap.image(gens.rho).to_umatrix(), wmap.image(gens.eta).to_umatrix()]
    return ApproxRep(pres, ring, wmap.degree, images)


@dataclass
class WreathDefectCertificate:
    p: int
    i: int
    x: int
    K: int
    degree: int
    structural_bound_val: int
    probe_val: int
    exact: bool
    group_order: int
    checked_pairs: int
    defect_val: int
    hdist_bound: HdistCertificate

    def to_json(self) -> dict:
        return {
            "p": self.p, "i": self.i, "x": str(self.x), "precision": self.K,
            "degree": self.degree,
            "structural_bound_val": self.structural_bound_val,
            "probe_val": self.probe_val,
            "exact": self.exact,
            "group_order": self.group_order,
            "checked_pairs": self.checked_pairs,
            "defect_val": self.defect_val,
            "hdist_bound": self.hdist_bound.to_json(),
        }


def _full_group_generators(gens: UnstableGenerators):
    """A generating set of the whole block group W_i (not just <rho, eta>):
    the two base generators in slot 0 plus the block shift."""
    outer = gens.outer
    return [outer.embed_at(gens.gamma, 0), outer.embed_at(gens.zeta, 0), gens.eta]


def hdist_involution_diag_bound(ring: RingSpec, i: int, x: int) -> HdistCertificate:
    """Residual 2-adic analogue of the diagonal lower bound.

    2^j-th roots of unity in extensions of Q_2 are 1, -1 and primitive
    roots with |xi - 1| = 2^{-1/2^{j-1}}; since val(x) >= 1 the closest is
    whichever of 1, -1 minimizes |(1+x) - xi| = |x| or |x + 2|.
    """
    if not ring.is_mixed or ring.p != 2:
        raise WitnessError("this bound is specific to mixed characteristic p = 2")
    vx = ring.val(x)
    candidates = [Fraction(vx), Fraction(ring.val(ring.add(x, ring.from_int(2))))]
    data = []
    for j in range(2, i + 1):
        v = Fraction(1, 2 ** (j - 1))
        data.append((j, v))
        candidates.append(v)
    best = max(candidates)  # nearest root = smallest norm = largest exponent
    return HdistCertificate(mode="ExtensionLowerBound",
                            value=NormValue(2, ring.precision, best, False),
                            cyclotomic_data=tuple(data))


def wreath_rep_defect_certificate(gens: UnstableGenerators, x: int, K: int
                                  ) -> WreathDefectCertificate:
    """Exact defect and distance certificate for the wreath representation.

    The carry lemma.  With u = 1 + x and q = p^i, every image is monomial,
    M(g) = P(pi(g)) diag(u^{a(g)}) with a(g) in [0, q)^{qr} and pi a
    homomorphism to permutations.  So M(g)M(h) and M(gh) have the same
    support, and at a coordinate whose exponents are a and b they differ
    by u^a u^b - u^{(a+b) mod q}: zero when a + b < q, and otherwise the
    unit u^{(a+b) mod q} times u^q - 1.  Every distance between M(g)M(h)
    and M(gh) is therefore K or val(u^q - 1), the structural value, and
    the probe pair (delta, delta^{q-1}) attains the latter, so the defect
    over the whole block group is exactly val(u^q - 1) at every index.

    The hypotheses are re-measured here: the probe pair, the q^2 carry
    table, and every ordered pair of the block group's generators and rho
    (same permutation, distance K or structural).  Any failure raises
    WitnessError.  test_wreath_defect_matches_enumeration checks the
    lemma against the full enumeration of the 16384-element block group.
    The Hdist bound restricts to the cyclic subgroup through delta.  gens
    comes from build_unstable_generators, which checks kappa and delta.
    """
    p, i = gens.p, gens.i
    ring = RingSpec.of("zp", p, K)
    wmap = WreathMatrixMap(p, i, x, ring)
    outer = gens.outer
    q, u_pow = wmap.q, wmap.powers

    structural = ring.val(ring.sub(ring.pow(u_pow[1], q), ring.one))

    # probe: delta * delta^{q-1} = identity realizes the cyclic defect
    delta_pow = outer.identity()
    for _ in range(q - 1):
        delta_pow = outer.mul(delta_pow, gens.delta)
    img_ab = wmap.image(outer.mul(gens.delta, delta_pow))
    probe = (wmap.image(gens.delta) @ wmap.image(delta_pow)).dist_val(img_ab)
    if probe != structural:
        raise WitnessError("probe pair failed to realize the cyclic defect")

    for a in range(q):
        for b in range(q):
            v = ring.val(ring.sub(ring.mul(u_pow[a], u_pow[b]), u_pow[(a + b) % q]))
            if v != (K if a + b < q else structural):
                raise WitnessError(f"carry table fails at exponents ({a}, {b})")

    generators = _full_group_generators(gens) + [gens.rho]
    for s in generators:
        for t in generators:
            prod, img_st = wmap.image(s) @ wmap.image(t), wmap.image(outer.mul(s, t))
            if prod.perm != img_st.perm:
                raise WitnessError("the permutation part is not a homomorphism")
            if prod.dist_val(img_st) not in (K, structural):
                raise WitnessError("a generator pair misses the carry lemma")

    hd = (hdist_involution_diag_bound(ring, i, x) if p == 2
          else hdist_lowerbound_diag(p, i, x, ring))
    return WreathDefectCertificate(
        p=p, i=i, x=x, K=K, degree=wmap.degree,
        structural_bound_val=structural, probe_val=probe, exact=True,
        group_order=outer.order(), checked_pairs=len(generators) ** 2,
        defect_val=structural, hdist_bound=hd,
    )


# ---------------------------------------------------------------------------
# Commutator witnesses
# ---------------------------------------------------------------------------


def make_commutator_witness(ring: RingSpec, n: int, a: int) -> Tuple[UMatrix, UMatrix]:
    """A = w^a E_12, B = w^a E_21: ||AB - BA|| = p^{-2a} exactly."""
    if n < 2:
        raise WitnessError("need dimension >= 2")
    if a < 1:
        raise WitnessError("need valuation a >= 1")
    wa = ring.omega_pow(a)
    rows_a = [[0] * n for _ in range(n)]
    rows_b = [[0] * n for _ in range(n)]
    rows_a[0][1] = wa
    rows_b[1][0] = wa
    A = UMatrix(ring, n, tuple(tuple(r) for r in rows_a))
    B = UMatrix(ring, n, tuple(tuple(r) for r in rows_b))
    comm = (A @ B) - (B @ A)
    if comm.min_valuation() != min(2 * a, ring.precision):
        raise WitnessError("commutator witness has the wrong norm")
    return A, B


@dataclass(frozen=True)
class CommutatorOracleResult:
    value: NormValue
    pairs_scanned: int
    feasible_level: int

    def to_json(self) -> dict:
        return {"value": self.value.encode(), "pairs_scanned": self.pairs_scanned,
                "feasible_level": self.feasible_level}


def _ball_matrices(center: UMatrix, level: int):
    """All matrices congruent to the center mod w^level (whole ring at 0)."""
    ring = center.ring
    n = center.n
    K = ring.precision
    offsets = ([ring.shift_up(raw, level) for raw in ring.with_precision(K - level).iter_all()]
               if level < K else [0])
    entries = [list(row) for row in center.rows]
    slots = [(i, j) for i in range(n) for j in range(n)]
    for combo in itertools.product(offsets, repeat=len(slots)):
        rows = [row[:] for row in entries]
        for (i, j), off in zip(slots, combo):
            rows[i][j] = ring.add(rows[i][j], off)
        yield UMatrix(ring, n, tuple(tuple(r) for r in rows))


class _Replay:
    """An iterator's items, drawn once: each pass replays what earlier passes
    drew, then draws on."""

    def __init__(self, items):
        self._items, self._seen = items, []

    def __iter__(self):
        yield from self._seen
        for x in self._items:
            self._seen.append(x)
            yield x


def commutator_witness_oracle(ring: RingSpec, n: int, a: int,
                              cap: int = DEFAULT_ENUM_CAP) -> CommutatorOracleResult:
    """True nearest-commuting-pair distance for the commutator witness.

    Minimizes max(||(I+A) - B1||, ||(I+B) - B2||) over all commuting
    invertible pairs, by descending over congruence balls: the minimum is
    p^{-m} for the deepest level m at which a commuting pair exists in the
    two balls.  Searching each ball exhaustively keeps the result exact.
    Each matrix of the second ball is built, and tested for invertibility,
    once per level rather than once per matrix of the first, and only as
    far as the search reads it.
    """
    A, B = make_commutator_witness(ring, n, a)
    ident = UMatrix.identity(ring, n)
    ca, cb = ident + A, ident + B
    K = ring.precision
    pairs = 0
    for level in range(K, -1, -1):
        if level < K:
            ball_size = ring.p ** ((K - level) * n * n)
            if ball_size ** 2 > cap:
                raise CapExceeded(
                    f"ball search at level {level} needs {ball_size ** 2} pairs")
        found = False
        second = _Replay((b2, b2.is_gl()) for b2 in _ball_matrices(cb, level))
        for b1 in _ball_matrices(ca, level):
            if not b1.is_gl():
                continue
            for b2, gl in second:
                pairs += 1
                if not gl:
                    continue
                if (b1 @ b2).rows == (b2 @ b1).rows:
                    found = True
                    break
            if found:
                break
        if found:
            value = (NormValue.saturated_for(ring) if level >= K
                     else NormValue.from_valuation(ring, level))
            return CommutatorOracleResult(value=value, pairs_scanned=pairs,
                                          feasible_level=level)
    raise WitnessError("even the radius-1 ball contains no commuting pair")
