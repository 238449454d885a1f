"""Constructive repair of approximate representations.

The engine turns a representation whose relators fail by at most p^{-k}
into an exact homomorphism at the working precision, moving each
generator image by at most p^{l-k} where p^l is the p-part of the finite
image C (order N, generated by the classes of the |S| generators, n x n
matrices).  C is read once per repair at the first defect level k, with
one relator list: the group's own relators R when coset enumeration
shows they present C, otherwise the Schreier relators of C's BFS tree
(|S| N - N + 1 of them).  <S | R> is enumerated once per process.  A
repair that finds its table recorded reads C from it (fewer than N
matmuls and N reductions); otherwise it closes C by BFS (|S| (N - 1)
matmuls) and, unless the record answers, enumerates (about 2N sum |r|
table steps); a quotient of <S | R> wastes at most N + 1 matmuls and
reductions on the table first.  C is kept as tables alone: its
right Cayley table and that table's inverse columns, so a product in C by
a letter x_g^{+-1} (the Schreier edges, the classes sd, the Fox
prefixes) is one table read and costs no matmul, and an inverse class
walks its tree word.  The lifting loop reads only that list and the
section sigma that the generator images span along C's tree, built once
to start and then by a step only where it is read.  One step at level k,
j = k - l, takes one of two methods, chosen by l alone, and costs in
n x n matmuls:

- both: the list's level, min over r of val(rho(r) - I): at most
  sum (|r| - 1) matmuls on R (a power u^e takes |u| - 1 + O(log e)), one
  per Schreier relator (sigma(h) rho(g) against sigma(hg)), which is the
  all-pairs level of the section.  That level must reach min(2j, K).
  The corrected generators' section (fewer than N) is built before that
  re-measure on the Schreier list, which reads it, and after it on R
  only when a next step follows.  The list is evaluated once per level:
  each re-measure's values are the next step's input, and a repair's
  input defect on R gives the first step's;
- l = 0, averaging: the cocycle row sums b(s) at the classes s != e,
  each an integer combination, fixed once per repair, of the values
  E(h, g) = coords_j(sigma(h) rho(g) sigma(hg)^{-1} - I) on C's Cayley
  edges (b(s) sums |subtree(c)| E(sb, g) over the tree edges (b, g) -> c):
  at most 2E matmuls on the E <= |S| N - N + 1 edges read, |S| sums of
  at most N - 1 values (|S| N n^2 products), c(s) = b(s) / N, exact as
  N is a unit, and the generators (I - w^j c(s)) sigma(s) (|S|);
- l > 0, the Fox solve: the relator values z(r) = coords_j(rho(r)) on
  the step's input images, read from the values that measured level k
  (none of the list's matmuls again, one matmul per relator against
  sigma(t^{-1}), t != e), and one exact solve of the list's Fox system
  for one particular solution: each generator moves
  by its own c(s), |R| n^2 equations in |S| n^2 unknowns, built from one
  n^2 x n^2 conjugation block per prefix class (n^4 products each).
  Neither method builds an inverse section: the list measured level k,
  so sigma(y) sigma(y^{-1}) = I mod w^k, and E, z and the blocks live
  mod w^{mod_exp}, mod_exp = min(2j, K) - j <= k.

Each amalgamation is glued by one exact conjugation: for edge-word images
x and y agreeing at level k, T = I + w^{k-l} X with T x = y T is the
Sylvester system y X x^{-1} - X = -coords(y x^{-1}), linear in X, so one
solve of n^2 equations in n^2 unknowns (O(n^6)) after three closures of N
matmuls reaches the working precision with no doubling.  Nothing is
trusted: every step re-measures the defect and distance it claims, and
the image order is the output's on C, read from its kernel, which lies
where the first section is I mod w^{k-l}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .local_ring import NormValue, RingSpec
from .presentations import (
    DEFAULT_CLOSURE_CAP,
    ApproxRep,
    CapExceeded,
    DefectTooLarge,
    FiniteImage,
    Presentation,
    PresentationError,
    Word,
    closure_of_matrices,
    enumerate_cosets,
    word_value,
)
from .ultranorm_linalg import UMatrix, Unsolvable, solve_linear


class RepairError(RuntimeError):
    pass


class HypothesisViolated(RepairError):
    pass


class CharPUnsupported(RepairError):
    pass


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerStep:
    defect_val_after: int
    distance_spent_val: int
    method: str  # "averaging" (p-part 0), "linear-solve" (p-part > 0) or "conjugation"


@dataclass
class PrecisionLedger:
    """Audit trail of a repair: levels claimed, levels spent, all re-measured."""

    initial_defect_val: int
    p_part: int
    steps: List[LedgerStep] = field(default_factory=list)
    final_distance_val: Optional[int] = None
    image_order: Optional[int] = None
    working_precision: int = 0
    verified: bool = False

    @property
    def final_distance_bound_val(self) -> int:
        return self.initial_defect_val - self.p_part

    def to_json(self) -> dict:
        return {
            "initial_defect_val": self.initial_defect_val,
            "p_part": self.p_part,
            "steps": [
                {"defect_val_after": s.defect_val_after,
                 "distance_spent_val": s.distance_spent_val,
                 "method": s.method}
                for s in self.steps
            ],
            "final_distance_bound_val": self.final_distance_bound_val,
            "final_distance_val": self.final_distance_val,
            "image_order": self.image_order,
            "working_precision": self.working_precision,
            "verified": self.verified,
        }


# ---------------------------------------------------------------------------
# The relator list
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Relators:
    """The relators a repair measures and solves on, as words in the generators.

    With `edges` empty the words are the group's own relators.  Otherwise
    word i is the Schreier relator w(h) g w(hg)^{-1} of the non-tree edge
    edges[i] = (h, g, hg) of C's BFS tree, w(c) the tree word of c: on any
    generator images it takes the value sigma(h) rho(g) sigma(hg)^{-1} for
    the tree section sigma they span.
    """

    words: Tuple[Word, ...]
    edges: Tuple[Tuple[int, int, int], ...] = ()


# (generator count, relator words) -> HLT's outcome: `enumerate_cosets`' (most,
# tree, right) and a FiniteImage per p, or (cap, None) if it failed at cap
_presented: dict = {}


def _relator_list(C: FiniteImage, relators: Sequence[Word]) -> _Relators:
    """The group's relators when they present C, else C's Schreier relators.

    The generators map onto C, so when coset enumeration closes at exactly
    |C| cosets the group is C and its relators present C.  The enumeration
    is capped at 2|C| live cosets.  HLT is deterministic, so its outcome is
    recorded in `_presented` and not repeated: a closed run answers every
    cap, and a run that failed at a cap of 2|C| or more answers this one.
    The Schreier relators, one per non-tree edge of C's right Cayley graph,
    generate the kernel of the free group onto C, so they always present it.
    """
    ngens, cap = len(C.generator_indices), 2 * C.order
    key = (ngens, tuple(relators))
    most, tree, *_ = _presented.get(key, (0, None))
    if tree is None and most < cap:
        try:
            tree, right, most = enumerate_cosets(ngens, relators, cap)
            _presented[key] = (most, tree, right, {})
        except CapExceeded:
            _presented[key] = (cap, None)
    if tree is not None and len(tree) == C.order and most < cap:
        return _Relators(tuple(relators))
    tree_words = [_tree_word(C, c) for c in range(C.order)]
    edges = tuple((h, g, t) for h in range(C.order) for g in range(ngens)
                  if C.tree[t := C.right[h][g]] != (h, g))
    return _Relators(tuple(Word.make(tree_words[h].letters + (g + 1,))
                           * tree_words[t].inverse() for h, g, t in edges), edges)


def _image(gens: Sequence[UMatrix], k: int, relators: Sequence[Word], cap: int
           ) -> Tuple[FiniteImage, _Relators, List[UMatrix]]:
    """C, the relator list and the first section of images on which
    `relators` hold mod w^k, so that <S | R> maps onto C.

    A closed table of <S | R> in `_presented` with N' <= cap classes is
    C's when the section along its tree has N' images distinct mod w^k,
    as the map is then injective.  Otherwise C is the closure at level k.
    """
    _, tree, *rest = _presented.get((len(gens), tuple(relators)), (0, None))
    if tree is not None and len(tree) <= cap:
        right, images = rest
        p = gens[0].ring.p
        C = images.get(p) or images.setdefault(p, FiniteImage(tree, right, list(right[0]), p))
        sigma = _tree_section(C, gens, k)
        if sigma is not None:
            return C, _relator_list(C, relators), sigma
    C = closure_of_matrices([g.reduce(k) for g in gens], cap=cap)
    return C, _relator_list(C, relators), _tree_section(C, gens)


def _averaging_weights(C: FiniteImage):
    """The edges (h, g, hg) that `_row_sums` reads, and per class s != e its
    terms (|subtree(c)|, (sb, g, sc)) at the tree edges (b, g) -> c that s
    moves off the tree; sc = (sb) x_g is one lookup, |S| N per repair."""
    size = [1] * C.order
    for c in range(C.order - 1, 0, -1):
        size[C.tree[c][0]] += size[c]
    rows: Dict[int, List[Tuple[int, Tuple[int, int, int]]]] = {}
    for s in dict.fromkeys(filter(None, C.generator_indices)):
        sc, rows[s] = [s] * C.order, []
        for c in range(1, C.order):
            b, g = C.tree[c]
            t = sc[c] = C.right[sc[b]][g]
            if C.tree[t] != (sc[b], g):
                rows[s].append((size[c], (sc[b], g, t)))
    return tuple(dict.fromkeys(e for row in rows.values() for _, e in row)), rows


def _relator_values(rel: _Relators, gens: Sequence[UMatrix],
                    sigma: Optional[Sequence[UMatrix]]) -> List[Tuple[UMatrix, int]]:
    """(a, t) per relator r, with rho(r) = a sigma(t)^{-1}.

    A word of the group's list is evaluated by `word_value`, at most |r| - 1
    matmuls (fewer on a power), and t = e, so sigma is not read; a
    Schreier relator is sigma(h) rho(g) against sigma(hg), one matmul each
    with h != e.
    """
    if rel.edges:
        return [(sigma[h] @ gens[g] if h else gens[g], t) for h, g, t in rel.edges]
    inverses: Dict[int, UMatrix] = {}
    ring, n = gens[0].ring, gens[0].n
    return [(word_value(w, gens, inverses, ring, n), 0) for w in rel.words]


# ---------------------------------------------------------------------------
# Section machinery
# ---------------------------------------------------------------------------


def _tree_word(C: FiniteImage, c: int) -> Word:
    """The word of the class c along C's BFS tree, read upward through `tree`."""
    letters = []
    while c:
        c, g = C.tree[c]
        letters.append(g + 1)
    return Word(tuple(reversed(letters)))


def _tree_section(C: FiniteImage, gens: Sequence[UMatrix], k: int = 0
                  ) -> Optional[List[UMatrix]]:
    """Section of C along its BFS tree: sigma(c) = sigma(parent) gens[g].

    One matmul per element whose parent is not the identity (the
    identity's children are generator images as they are), fewer than N
    in all.  A repair builds one to start, and a lifting step one more
    when it is read: always on the Schreier list, whose relator values
    read it, and on the group's own list only when a next step follows
    (every step but the last).  With k > 0 each image is reduced
    mod w^k as it is made, and the section is None at the first image
    equal mod w^k to an earlier one.
    """
    out = [UMatrix.identity(gens[0].ring, gens[0].n)]
    seen = {out[0].reduce(k).rows} if k else None
    for parent, g in C.tree[1:]:
        m = out[parent] @ gens[g] if parent else gens[g]
        if k:
            r = m.reduce(k).rows
            if r in seen:
                return None
            seen.add(r)
        out.append(m)
    return out


def _edge_values(C: FiniteImage, pairs, sigma: Sequence[UMatrix], j: int,
                 mod_exp: int) -> List[UMatrix]:
    """coords_j(a - sigma(t)) sigma(t^{-1}) mod w^{mod_exp} per (a, t), one
    matmul if t != e; with a = sigma(h) rho(g), t = hg, the Schreier value E.
    The coordinates cost one RingSpec.row_coords call per row."""
    ring = sigma[0].ring
    ring_q, coords = ring.with_precision(mod_exp), ring.row_coords
    js, ms = itertools.repeat(j), itertools.repeat(mod_exp)
    out = []
    for a, t in pairs:
        d = UMatrix(ring_q, a.n, tuple(map(tuple, map(coords, a.rows, sigma[t].rows, js, ms))))
        out.append(d @ sigma[C.inverse(t)].reduce(mod_exp) if t else d)
    return out


def _row_sums(C: FiniteImage, gens: Sequence[UMatrix], sigma: Sequence[UMatrix],
              weights, j: int, mod_exp: int) -> Dict[int, UMatrix]:
    """b(s) = sum_d z(s, d) at each generator class s != e, z the section's 2-cocycle.

    Along a tree edge (b, g) -> c, sigma(s) sigma(c) sigma(sc)^{-1} =
    (I + w^j z(s, b)) (I + w^j E(sb, g)), E(h, g) the Schreier edge value
    coords_j(sigma(h) rho(g) sigma(hg)^{-1} - I), zero on the tree edges.
    So z(s, c) = z(s, b) + E(sb, g) mod w^{2j}, z(s, e) = 0, and b(s) is
    the sum over the tree edges of |subtree(c)| E(sb, g).  A tree edge's g
    is the first generator of its class, so (e, g) is on the tree and
    h != e on every weighted edge.  Cost: the E weighted edges' values
    (at most 2E matmuls), then |S| sums of at most N - 1 of them, one
    reduction per entry; no inversion.  b / N solves delta c = z when N is
    a unit, as delta b = N z.
    """
    edges, rows = weights
    ring_q, n = sigma[0].ring.with_precision(mod_exp), sigma[0].n
    values = dict(zip(edges, ([x for r in v.rows for x in r] for v in _edge_values(
        C, [(sigma[h] @ gens[g], t) for h, g, t in edges], sigma, j, mod_exp))))
    sums = {}
    for s, row in rows.items():
        flat = _combine(ring_q, [(w, values[e]) for w, e in row])
        sums[s] = UMatrix(ring_q, n, tuple(tuple(flat[o:o + n]) for o in range(0, n * n, n)))
    return sums


def _conj_block(ring: RingSpec, u, uinv) -> List[int]:
    """The n^2 x n^2 matrix of M -> u M u^{-1} on row-major entries, flat.

    u and uinv are raw rows at the ring's precision or above.  Entry
    (r, t), (a, b), at index (r n + t) n^2 + a n + b, is u[r][a] uinv[b][t],
    one product and one reduction.
    """
    cols = list(zip(*uinv))
    if ring.is_mixed:
        M = ring.modulus
        return [x * y % M for ur in u for col in cols for x in ur for y in col]
    mul = ring.mul
    return [mul(x, y) for ur in u for col in cols for x in ur for y in col]


def _combine(ring: RingSpec, terms: Sequence[Tuple[int, List[int]]]) -> List[int]:
    """sum e B over the (integer e, flat block B) terms, one reduction per entry."""
    if not ring.is_mixed:
        es = [ring.from_int(e) for e, _ in terms]
        return [ring.dot(es, xs) for xs in zip(*(b for _, b in terms))]
    M = ring.modulus
    (e, b), *rest = terms
    if not rest:
        return [e * x % M for x in b]
    acc = [e * x for x in b]
    for e, b in rest:
        acc = [a + e * x for a, x in zip(acc, b)]
    return [a % M for a in acc]


def _fox_solve(C: FiniteImage, sigma: Sequence[UMatrix], rel: _Relators,
               z: Sequence[UMatrix]) -> List[UMatrix]:
    """c(s) per generator with every relator exact mod w^{j + mod_exp}.

    z[i] = coords_j(rho(r_i)) over o/w^{mod_exp}, j the step's correction
    level.  Moving each generator to (I - w^j c(s)) rho(s) moves rho(r) =
    I + w^j z(r) to I + w^j (z(r) + sum_i e_i A_i c(s_i) A_i^{-1}) mod
    w^{2j}, over the letters s_i^{+-1} of r (Fox derivatives): e_i = -1 and
    A_i the prefix before a letter s_i, e_i = +1 and A_i the prefix through
    a letter s_i^{-1}.  rho is a homomorphism on C mod w^k, so A_i acts
    through sigma at its class, and equal (s_i, class) terms add up.  One
    exact solve over o/w^{mod_exp} of |R| n^2 equations in |S| n^2
    unknowns.  The n^2 x n^2 conjugation block of each prefix class met is
    built once from sigma's raw entries (n^4 products), and the block of
    each (relator, generator) pair sums its terms with one reduction per
    entry; sigma(y^{-1}) = sigma(y)^{-1} mod w^k there, as mod_exp <= k.
    On the Schreier list this is the coboundary system delta c = z
    gauge-fixed along C's tree, so solvability is that of the H^2 class of z.
    """
    ring_q = z[0].ring
    n, ngens = sigma[0].n, len(C.generator_indices)
    nn = n * n
    blocks: Dict[int, List[int]] = {}
    zero = [0] * (nn * nn)
    rows: List[List[int]] = []
    rhs: List[int] = []
    for w, zr in zip(rel.words, z):
        fox: Dict[Tuple[int, int], int] = {}
        c = 0
        for x in w.letters:
            s = abs(x) - 1
            if x > 0:
                fox[s, c] = fox.get((s, c), 0) - 1
                c = C.right[c][s]
            else:
                c = C.back[s][c]
                fox[s, c] = fox.get((s, c), 0) + 1
        terms: List[List[Tuple[int, List[int]]]] = [[] for _ in range(ngens)]
        for (s, y), e in fox.items():
            if e:
                if y not in blocks:
                    blocks[y] = _conj_block(ring_q, sigma[y].rows, sigma[C.inverse(y)].rows)
                terms[s].append((e, blocks[y]))
        eqs = [_combine(ring_q, t) if t else zero for t in terms]
        rows.extend(list(itertools.chain.from_iterable(eq[o:o + nn] for eq in eqs))
                    for o in range(0, nn * nn, nn))
        for r in zr.rows:
            rhs.extend(ring_q.row_neg(r))
    x = solve_linear(rows, rhs, ring_q)
    return [UMatrix(ring_q, n, tuple(tuple(x[o + a * n:o + a * n + n]) for a in range(n)))
            for o in range(0, ngens * nn, nn)]


# ---------------------------------------------------------------------------
# The lifting loop
# ---------------------------------------------------------------------------


def _lift_step(C: FiniteImage, gens: Sequence[UMatrix], sigma: Sequence[UMatrix],
               values, rel: _Relators, weights, k: int):
    """One lifting step at defect level k on the carried image C.

    sigma is the section that the generator images span along C's tree;
    the relator list measured level k on them, with the values (a, t) of
    `_relator_values`, rho(r) = a sigma(t)^{-1}.  The p-part l of N picks
    the method.  With l = 0 (values unread) the generators move to
    (I - w^j c(s)) sigma(s) at their classes (I at the class e), c(s) =
    b(s) / N from the row sums read with `weights`, C's
    `_averaging_weights`.  With l > 0 (weights None) each generator image
    moves by its own c(s) from the Fox solve of z(r) = coords_j(a -
    sigma(t)) sigma(t^{-1}); w^l must divide z.  Either way the list is
    re-measured on the new images, one evaluation, and must reach
    min(2j, K).  The step's one new section (fewer than N matmuls) is built
    only where it is read: before the re-measure on the Schreier list,
    whose values read it, and after it on the group's own list, whose
    values are `word_value`s of the new images alone, only if the level is
    below K, so that a next step follows.  Returns the new images, their
    section (None after the last step on the own list), the re-measure's
    values and the ledger step, whose level is the relator list's on the
    new images.
    """
    ring, n = sigma[0].ring, sigma[0].n
    l = C.p_part
    j = k - l
    target = min(2 * j, ring.precision)
    mod_exp = target - j

    def moved(c: UMatrix, m: UMatrix) -> UMatrix:
        return (-c).lift_to(ring).congruence_lift(j) @ m

    if l:
        method = "linear-solve"
        z = _edge_values(C, values, sigma, j, mod_exp)
        if any(v.min_valuation() < min(l, mod_exp) for v in z):
            raise RepairError("relator values are not divisible by the p-part")
        new = [moved(c, g) for c, g in zip(_fox_solve(C, sigma, rel, z), gens)]
    else:
        method = "averaging"
        sums = _row_sums(C, gens, sigma, weights, j, mod_exp)
        ring_q = ring.with_precision(mod_exp)
        inv_n = ring_q.inv(ring_q.from_int(C.order))
        new = [moved(sums[s].scale(inv_n), sigma[s]) if s else UMatrix.identity(ring, n)
               for s in C.generator_indices]
    new_sigma = _tree_section(C, new) if rel.edges else None
    values = _relator_values(rel, new, new_sigma)
    level = min((a.dist_valuation(new_sigma[t]) if t else a.dist_valuation()
                 for a, t in values), default=ring.precision)
    if level < target:
        raise Unsolvable(f"lift step failed to reach level {target} (got {level})", level)
    if new_sigma is None and level < ring.precision:
        new_sigma = _tree_section(C, new)
    return new, new_sigma, values, LedgerStep(level, j, method)


def _lift_to_exact(ring: RingSpec, gens: Sequence[UMatrix], k: int, C: FiniteImage,
                   rel: _Relators, sigma: List[UMatrix], values, steps: List[LedgerStep]
                   ) -> Sequence[UMatrix]:
    """Lifting steps from defect level k until the images are exact at K.

    C is the image of the generators mod w^k, rel the relator list and
    sigma the generators' section, all three from `_image`; values are the
    list's values (a, t) on gens when the caller has them (the group's own
    relators measured for the input's defect), else None.  A step leaves
    a homomorphism mod w^{k'} on C, k' > k, and the checks on l and k hold
    at every later level as k only grows.  With l = 0 that homomorphism is
    injective, as it agrees with C mod w^k, so C's tables still describe
    the image; with l > 0 carrying C keeps the original p^l, so each
    j = k - l meets the certified bound.
    The list is evaluated once per level: each step's re-measure hands its
    values to the next step, and with l > 0 and no values given the list
    is measured once before the first step.  Returns the exact images.
    """
    K = ring.precision
    l = C.p_part
    if not ring.is_mixed and l > 0:
        raise CharPUnsupported(
            "equal characteristic repair needs a p'-image; "
            "order-2 images route through the involution repair")
    if k <= 2 * l:
        raise HypothesisViolated(f"need defect level k > 2l (k={k}, l={l})")
    weights = None if l else _averaging_weights(C)
    if l and values is None:
        values = _relator_values(rel, gens, sigma)
    iterations = 0
    while k < K:
        if iterations >= K:
            raise RepairError("lifting loop exceeded its iteration bound")
        gens, sigma, values, step = _lift_step(C, gens, sigma, values, rel, weights, k)
        steps.append(step)
        k = step.defect_val_after
        iterations += 1
    return gens


def _remeasured(rep: ApproxRep, out: ApproxRep, ledger: PrecisionLedger
                ) -> Tuple[ApproxRep, PrecisionLedger]:
    """out exact at K and within the ledger's certified bound of rep, else
    RepairError; records the distance and marks the ledger verified."""
    if not out.defect().saturated:
        raise RepairError("repaired representation is not exact at precision K")
    dist = rep.rep_dist(out)
    ledger.final_distance_val = dist.valuation
    if not dist <= NormValue.from_valuation(rep.ring, ledger.final_distance_bound_val):
        raise RepairError("repair moved farther than the certified bound")
    ledger.verified = True
    return out, ledger


def repair_finite_image(rep: ApproxRep, cap: int = DEFAULT_CLOSURE_CAP
                        ) -> Tuple[ApproxRep, PrecisionLedger]:
    """Repair a representation into an exact homomorphism at precision K.

    The output factors through the finite image C of the input at its
    defect level, enumerated once; the distance moved is at most p^l *
    defect where p^l = p-part of |C|.  Every claim is re-measured before
    returning.  The group's relators are evaluated once on the input, for
    its defect, and on the group's own list those values are the first Fox
    step's.  The output agrees with the first section sigma0 mod w^{j0},
    j0 = k0 - l, so its kernel on C lies in H0 = {c : sigma0(c) = I mod
    w^{j0}}, and the image order is N over the classes of H0 whose tree
    word the output sends to I: with l = 0, H0 = {e} and this costs no
    matmul.  On the benchmark's seeded inputs a repair makes 98 matmuls
    for S4 at p = 5 (<s, t | s^2, t^4, (st)^3>, two averaging steps), 50
    for S3 at p = 5 and 22 for D4 at p = 2 (one Fox step).
    """
    ring = rep.ring
    K = ring.precision
    values = rep.relator_values()
    k0 = min((v.dist_valuation() for v in values), default=K)
    if k0 >= K:
        ledger = PrecisionLedger(initial_defect_val=K, p_part=0,
                                 working_precision=K, verified=True)
        ledger.final_distance_val = K
        try:
            ledger.image_order = closure_of_matrices(list(rep.images), cap=cap).order
        except CapExceeded:
            pass
        return rep, ledger
    if k0 < 1:
        raise DefectTooLarge("defect must be < 1 (some relator fails mod w)")
    # k0 is the defect level, so the reduction mod w^k0 is a homomorphism
    C0, rel, sigma0 = _image(rep.images, k0, rep.presentation.relators, cap)
    ledger = PrecisionLedger(initial_defect_val=k0, p_part=C0.p_part,
                             image_order=C0.order, working_precision=K)
    gens = _lift_to_exact(ring, rep.images, k0, C0, rel, sigma0,
                          None if rel.edges else [(v, 0) for v in values], ledger.steps)
    # exact at K on a list that presents C, the output is a homomorphism on
    # C, and its kernel lies in H0: its order is read there, with no closure
    j0 = k0 - C0.p_part
    kernel = sum(1 for c, m in enumerate(sigma0) if m.dist_valuation() >= j0
                 and word_value(_tree_word(C0, c), gens, {}, ring, rep.n).dist_valuation() >= K)
    if C0.order % kernel:
        raise RepairError("repaired image order does not divide |C|")
    ledger.image_order = C0.order // kernel
    return _remeasured(rep, rep.with_images(gens), ledger)


# ---------------------------------------------------------------------------
# Conjugacy: one Sylvester solve per amalgamation
# ---------------------------------------------------------------------------


def align_homomorphisms(x: UMatrix, y: UMatrix, cap: int = DEFAULT_CLOSURE_CAP
                        ) -> Tuple[UMatrix, List[LedgerStep]]:
    """T with T x T^{-1} = y exactly and T = I mod w^{k-l}, k = val(x - y).

    x and y must have the same order N at precision K as the cyclic group
    C that y generates mod w^k, and p^l is the p-part of N.  With j = k - l
    and T = I + w^j X, the condition T x = y T is the Sylvester system
    y X x^{-1} - X = -coords_j(y x^{-1}) over o/w^{K-j}: exact and linear
    in X, so one solve reaches K and no precision doubling is needed.  It
    has n^2 equations in n^2 unknowns and is solvable whenever k > 2l (the
    conjugacy theorem for close homomorphisms of a finite group).  Cost:
    three closures of N matmuls each, one inversion and one n^2 x n^2
    elimination for one particular solution, O(n^6).  T is re-measured at
    K before returning.
    """
    ring = x.ring
    n = x.n
    K = ring.precision
    k = x.dist_valuation(y)
    if k >= K:
        return UMatrix.identity(ring, n), []
    C = closure_of_matrices([y.reduce(k)], cap=cap)
    for m in (x, y):
        order = closure_of_matrices([m], cap=cap).order
        if order != C.order:
            raise HypothesisViolated(
                f"edge subgroup grows under precision refinement "
                f"({C.order} -> {order}): order bound hypothesis fails")
    l = C.p_part
    if not ring.is_mixed and l > 0:
        raise CharPUnsupported("equal characteristic alignment needs a p'-image")
    if k <= 2 * l:
        raise HypothesisViolated(f"homomorphisms agree only at level {k} <= 2l")
    j = k - l
    ring_q = ring.with_precision(K - j)
    xinv = x.inv()
    nn = n * n
    block = _conj_block(ring_q, y.rows, xinv.rows)
    rows = [block[i * nn:i * nn + nn] for i in range(nn)]
    for i, row in enumerate(rows):
        row[i] = ring_q.sub(row[i], ring_q.one)
    d = (y @ xinv).congruence_coords(j).reduce(K - j)
    sol = solve_linear(rows, [v for r in (-d).rows for v in r], ring_q)
    t = UMatrix(ring_q, n, tuple(tuple(sol[r * n:r * n + n]) for r in range(n)))
    t = t.lift_to(ring).congruence_lift(j)
    got = (t @ x).dist_valuation(y @ t)
    if got < K:
        raise Unsolvable(f"conjugator misses T x = y T at level {got}", got)
    return t, [LedgerStep(K, j, "conjugation")]


# ---------------------------------------------------------------------------
# Graphs of groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GogVertex:
    name: str
    generators: Tuple[str, ...]
    relators: Tuple[Tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class GogEdge:
    source: str
    target: str
    word_source: Tuple[str, ...]
    word_target: Tuple[str, ...]
    letter: str
    in_tree: bool


@dataclass(frozen=True)
class GraphOfGroups:
    """Vertices and edges as given, plus their words parsed once.

    Built, it keeps plain attributes (out of __eq__ and __hash__):
    `vertex_relators`, by vertex name, the vertex's relators as words in
    its own generators; `edge_words`, by edge letter, the edge's (source,
    target) words in the standard presentation's generators; `tree_order`,
    the (edge, child vertex) pairs of a BFS of the tree edges from the
    first vertex, in the order the amalgamations glue them; and the
    standard presentation.  A token that is not a string or names no
    generator, and tree edges that do not form a spanning tree, are a
    PresentationError here.
    """

    vertices: Tuple[GogVertex, ...]
    edges: Tuple[GogEdge, ...]

    def __post_init__(self):
        names = [v.name for v in self.vertices]
        if len(set(names)) != len(names):
            raise PresentationError("duplicate vertex names")
        gen_owner: Dict[str, str] = {}
        for v in self.vertices:
            for g in v.generators:
                if g in gen_owner:
                    raise PresentationError(f"generator {g} owned by two vertices")
                gen_owner[g] = v.name
        for e in self.edges:
            if e.source not in names or e.target not in names:
                raise PresentationError("edge endpoint is not a vertex")
            if e.letter in gen_owner:
                raise PresentationError(f"edge letter {e.letter} clashes with a vertex generator")
        if sum(1 for e in self.edges if e.in_tree) != len(names) - 1:
            raise PresentationError("tree edges must form a spanning tree")
        order = {name: i for i, name in enumerate(names)}
        adjacency: Dict[str, List[GogEdge]] = {name: [] for name in names}
        for e in self.edges:
            if e.in_tree:
                adjacency[e.source].append(e)
                adjacency[e.target].append(e)
        visited = {names[0]}
        queue = [names[0]]
        tree_order: List[Tuple[GogEdge, str]] = []
        for cur in queue:
            for e in sorted(adjacency[cur], key=lambda e: order[e.source] + order[e.target]):
                other = e.target if e.source == cur else e.source
                if other not in visited:
                    visited.add(other)
                    queue.append(other)
                    tree_order.append((e, other))
        if len(visited) != len(names):
            raise PresentationError("spanning tree does not reach every vertex")
        gens = tuple(g for v in self.vertices for g in v.generators) + tuple(
            e.letter for e in self.edges)
        edge_words = tuple((Word.parse(e.word_source, gens), Word.parse(e.word_target, gens))
                           for e in self.edges)
        relators = [Word.parse(r, gens) for v in self.vertices for r in v.relators]
        for e, (src, tgt) in zip(self.edges, edge_words):
            t = Word.parse([e.letter], gens)
            relators.append(t * src * t.inverse() * tgt.inverse())
            if e.in_tree:
                relators.append(t)
        setattr_ = object.__setattr__
        setattr_(self, "vertex_relators", {v.name: [Word.parse(r, v.generators)
                                                    for r in v.relators]
                                           for v in self.vertices})
        setattr_(self, "edge_words", dict(zip((e.letter for e in self.edges), edge_words)))
        setattr_(self, "tree_order", tree_order)
        setattr_(self, "_presentation", Presentation(gens, tuple(relators)))

    def vertex(self, name: str) -> GogVertex:
        return next(v for v in self.vertices if v.name == name)

    def standard_presentation(self) -> Presentation:
        return self._presentation

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "graph_of_groups",
            "vertices": [
                {"name": v.name, "generators": list(v.generators),
                 "relators": [list(r) for r in v.relators]}
                for v in self.vertices
            ],
            "edges": [
                {"source": e.source, "target": e.target,
                 "word_source": list(e.word_source),
                 "word_target": list(e.word_target),
                 "letter": e.letter, "in_tree": e.in_tree}
                for e in self.edges
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GraphOfGroups":
        vertices = tuple(
            GogVertex(v["name"], tuple(v["generators"]),
                      tuple(tuple(r) for r in v.get("relators", [])))
            for v in obj["vertices"]
        )
        edges = tuple(
            GogEdge(e["source"], e["target"], tuple(e["word_source"]),
                    tuple(e["word_target"]), e["letter"], bool(e["in_tree"]))
            for e in obj["edges"]
        )
        return cls(vertices, edges)


def graph_repair(gog: GraphOfGroups, rep: ApproxRep, cap: int = DEFAULT_CLOSURE_CAP
                 ) -> Tuple[ApproxRep, PrecisionLedger]:
    """Repair a representation of a graph-of-groups presentation.

    Tree edge letters are sent to the identity, each vertex is repaired
    through its finite image, amalgamations along a spanning tree and the
    remaining edge letters are corrected by solved conjugators.  The output
    satisfies every relator exactly; the distance moved is at most
    p^l * defect for the largest p-part l met along the way.  The input's
    relators are evaluated once, for its defect; a vertex repaired on its
    own relators takes their values as its first Fox step's.
    """
    pres = gog.standard_presentation()
    if rep.presentation != pres:
        raise PresentationError(
            "representation does not carry the standard graph-of-groups presentation")
    ring = rep.ring
    n = rep.n
    K = ring.precision
    values = rep.relator_values()
    k0 = min((v.dist_valuation() for v in values), default=K)
    if k0 >= K:
        ledger = PrecisionLedger(initial_defect_val=K, p_part=0,
                                 working_precision=K, verified=True)
        ledger.final_distance_val = K
        return rep, ledger
    if k0 < 1:
        raise DefectTooLarge("defect must be < 1")

    where = {name: i for i, name in enumerate(pres.generators)}
    images = list(rep.images)
    steps: List[LedgerStep] = []

    # (1) tree edge letters become the identity.
    for e in gog.edges:
        if e.in_tree:
            images[where[e.letter]] = UMatrix.identity(ring, n)

    # (2) vertex repairs through their finite images at the defect level.
    # The standard presentation lists the vertex relators first, vertex by
    # vertex, so a vertex's own list reads its slice of the input's values.
    end = 0
    for v in gog.vertices:
        relators = gog.vertex_relators[v.name]
        start, end = end, end + len(relators)
        if not v.generators:
            continue
        idx = [where[g] for g in v.generators]
        gens = [images[i] for i in idx]
        C, rel, sigma = _image(gens, k0, relators, cap)
        gens = _lift_to_exact(ring, gens, k0, C, rel, sigma,
                              None if rel.edges else [(a, 0) for a in values[start:end]], steps)
        for i, mat in zip(idx, gens):
            images[i] = mat

    def edge_sides(e: GogEdge) -> Tuple[UMatrix, UMatrix]:
        inverses: Dict[int, UMatrix] = {}
        src, tgt = (word_value(w, images, inverses, ring, n) for w in gog.edge_words[e.letter])
        return src, tgt

    # (3) amalgamate along the graph's BFS spanning tree, from the first vertex.
    for e, child in gog.tree_order:
        src, tgt = edge_sides(e)
        # With t_e = I the relation says src = tgt exactly; conjugate the
        # child's vertex images so that its side lands on the parent's.
        parent_side, child_side = (src, tgt) if child == e.target else (tgt, src)
        t, st = align_homomorphisms(child_side, parent_side, cap)
        if not st:
            continue
        steps.extend(st)
        tinv = t.inv()
        for g in gog.vertex(child).generators:
            images[where[g]] = t @ images[where[g]] @ tinv

    # (4) non-tree edge letters are corrected by conjugators.
    for e in gog.edges:
        if e.in_tree:
            continue
        src, tgt = edge_sides(e)
        t0 = images[where[e.letter]]
        t, st = align_homomorphisms(t0 @ src @ t0.inv(), tgt, cap)
        steps.extend(st)
        images[where[e.letter]] = t @ t0

    out = ApproxRep(pres, ring, n, images)
    # The certified loss is the shallowest correction level actually spent;
    # with p'-images everywhere it is zero and the estimate is optimal.
    j_min = min((s.distance_spent_val for s in steps), default=k0)
    loss = max(0, k0 - j_min)
    return _remeasured(rep, out, PrecisionLedger(initial_defect_val=k0, p_part=loss,
                                                 steps=steps, working_precision=K))
