"""Constructive repair of approximate representations.

The engine turns a representation whose relators fail by at most p^{-k}
into an exact homomorphism at the working precision, moving each
generator image by at most p^{l-k} where p^l is the p-part of the finite
image C (order N, generated by the classes of the |S| generators, n x n
matrices).  One lifting step at defect level k, with its cost in n x n
matmuls:

- enumerate C mod w^k by BFS (|S| N) and build the section sigma and its
  inverse along the BFS parent pointers (N each);
- compute the section-failure 2-cocycle z only at its generator rows
  z(s, d), s a generator class and d in C (2 |S| N); the cocycle identity
  fixes every other value from these rows;
- solve delta c = z by averaging: b(g) = sum_h z(g, h) follows from the
  rows at every g with one conjugation each (2 N), division by the unit
  part of N is exact, division by the p-part costs the recorded precision;
- correct sigma at every element (N) and re-measure its defect by the
  generator-against-all check (|S| N), which ultrametric induction makes
  the all-pairs defect;
- when averaging is obstructed or leaves a residue, solve delta c = z
  exactly as a linear system over the ring (|S| N n^2 equations in
  (N - 1) n^2 unknowns) and re-measure again.

Conjugacy corrections for amalgamations solve the analogous 1-cocycle
equation.  Nothing is trusted: every step re-measures the defect and
distance it claims.
"""

from __future__ import annotations

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
    closure_of_matrices,
    finite_image,
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
    method: str  # "averaging" or "linear-solve"


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
# Cochains
# ---------------------------------------------------------------------------


@dataclass
class Cochain2:
    """The generator rows of a 2-cocycle on a finite image.

    rows[s][d] is the coordinate matrix of the section failure at the
    element pair (s, d), for s a generator class and d in C, with entries
    in `ring` (the working ring mod w^mod_exp).  These rows fix the
    cocycle.  A generator class s acts by conjugation through act[s].
    """

    image: FiniteImage
    ring: RingSpec
    rows: Dict[int, List[UMatrix]]
    act: Dict[int, UMatrix]
    act_inv: Dict[int, UMatrix]


@dataclass
class Cochain1:
    """A 1-cochain on a finite image, in additive congruence coordinates."""

    image: FiniteImage
    level: int
    mod_exp: int
    values: Dict[int, UMatrix]


# ---------------------------------------------------------------------------
# Section machinery
# ---------------------------------------------------------------------------


def _tree_section(C: FiniteImage, gens: Sequence[UMatrix], *,
                  inverse: bool = False) -> List[UMatrix]:
    """Section of C along its BFS tree: sigma(c) = sigma(parent) gens[g].

    One matmul per element.  With inverse=True, `gens` holds the inverse
    generator images and the result is c -> sigma(c)^{-1}.
    """
    out = [UMatrix.identity(gens[0].ring, gens[0].n)]
    for parent, g in C.tree[1:]:
        out.append(gens[g] @ out[parent] if inverse else out[parent] @ gens[g])
    return out


def _generator_classes(C: FiniteImage) -> List[int]:
    out = []
    for g in C.generator_indices:
        if g not in out and g != 0:
            out.append(g)
    return out or [0]


def _section_defect_val(sigma: Sequence[UMatrix], C: FiniteImage) -> int:
    """min over pairs of val(sigma(c) sigma(d) - sigma(cd)); K when exact.

    Only the pairs (s, d) with s a generator class are measured: when
    sigma(e) = I and each of them agrees mod w^m, every c = s p with p
    shorter gives sigma(c) sigma(d) = sigma(s) sigma(p) sigma(d) =
    sigma(s) sigma(pd) = sigma(cd) mod w^m by induction, so this min is
    the all-pairs min.
    """
    best = sigma[0].ring.precision
    for s in _generator_classes(C):
        ss = sigma[s]
        for d in range(C.order):
            v = ((ss @ sigma[d]) - sigma[C.product(s, d)]).min_valuation()
            if v < best:
                best = v
                if best == 0:
                    return 0
    return best


def _cocycle_rows(sigma, sigma_inv, C: FiniteImage, level: int, mod_exp: int) -> Cochain2:
    """Rows z(s, d) = coords of sigma(s) sigma(d) sigma(sd)^{-1}, s a generator class."""
    classes = _generator_classes(C)
    rows = {
        s: [(sigma[s] @ sigma[d] @ sigma_inv[C.product(s, d)])
            .congruence_coords(level).reduce(mod_exp) for d in range(C.order)]
        for s in classes
    }
    return Cochain2(C, sigma[0].ring.with_precision(mod_exp), rows,
                    {s: sigma[s].reduce(mod_exp) for s in classes},
                    {s: sigma_inv[s].reduce(mod_exp) for s in classes})


def _avg_candidate(z: Cochain2) -> Optional[List[UMatrix]]:
    """Averaging solution of the coboundary equation (delta c = z).

    b(g) = sum_h z(g, h) satisfies delta b = |C| z.  Summing the cocycle
    identity over its last argument gives b(sh) = s.b(h) + b(s) - |C| z(s, h),
    so the generator rows give b on all of C from b(e) = 0, one conjugation
    per element.  Dividing by the unit part is exact, dividing by the
    p-part is entrywise and returns None when obstructed.
    """
    C = z.image
    ring_q = z.ring
    n = C.elements[0].n
    a = C.p_part
    if a >= ring_q.precision:
        return None
    order = ring_q.from_int(C.order)
    row_sums = {}
    for s, row in z.rows.items():
        acc = UMatrix.zero(ring_q, n)
        for v in row:
            acc = acc + v
        row_sums[s] = acc
    b: List[Optional[UMatrix]] = [UMatrix.zero(ring_q, n)] + [None] * (C.order - 1)
    queue = [0]
    for h in queue:
        for s, row in z.rows.items():
            g = C.product(s, h)
            if b[g] is None:
                b[g] = z.act[s] @ b[h] @ z.act_inv[s] + row_sums[s] - row[h].scale(order)
                queue.append(g)
    minv = ring_q.inv(ring_q.from_int(C.unit_part))
    c: List[UMatrix] = []
    for bg in b:
        t = bg.scale(minv)
        if a:
            if t.min_valuation() < a:
                return None
            rows = tuple(tuple(ring_q.shift_down(x, a) for x in r) for r in t.rows)
            t = UMatrix(ring_q, n, rows)
        c.append(t)
    return c


def _solve_h2_linear(z: Cochain2) -> List[UMatrix]:
    """Exact coboundary solve delta c = z as a linear system over the ring.

    Unknowns are c(g) for g != identity (c(e) = 0 is forced); equations are
    taken at the generator rows, which determine a 2-cocycle.
    """
    C = z.image
    ring_q = z.ring
    n = C.elements[0].n
    N = C.order
    nvars = (N - 1) * n * n
    rows: List[List[int]] = []
    rhs: List[int] = []

    def var(e: int, a: int, b: int) -> int:
        return (e - 1) * n * n + a * n + b

    for s, zrow in z.rows.items():
        us = z.act[s]
        uinv = z.act_inv[s]
        for d in range(N):
            sd = C.product(s, d)
            zv = zrow[d]
            for r in range(n):
                for t in range(n):
                    row = [0] * nvars
                    # s . c(d) contributes u[r][a] * uinv[b][t] per entry (a, b)
                    if d != 0:
                        for a in range(n):
                            ura = us.rows[r][a]
                            if ura == 0:
                                continue
                            for b in range(n):
                                coef = ring_q.mul(ura, uinv.rows[b][t])
                                if coef:
                                    j = var(d, a, b)
                                    row[j] = ring_q.add(row[j], coef)
                    if sd != 0:
                        j = var(sd, r, t)
                        row[j] = ring_q.sub(row[j], ring_q.one)
                    if s != 0:
                        j = var(s, r, t)
                        row[j] = ring_q.add(row[j], ring_q.one)
                    rows.append(row)
                    rhs.append(zv.rows[r][t])
    x = solve_linear(rows, rhs, ring_q).particular
    c = [UMatrix.zero(ring_q, n)]
    for e in range(1, N):
        c.append(UMatrix(ring_q, n, tuple(tuple(x[var(e, a, b)] for b in range(n))
                                          for a in range(n))))
    return c


# ---------------------------------------------------------------------------
# One lifting step and the lifting loop
# ---------------------------------------------------------------------------


def _section_lift_once(ring: RingSpec, n: int, gens: Sequence[UMatrix], k: int,
                       cap: int) -> Tuple[List[UMatrix], LedgerStep]:
    """One precision-doubling correction of the generator images at level k.

    The correction is applied to the whole section and its defect is the
    level recorded: it can be below the defect of the section that the
    corrected generator images span, and it decides the fallback.
    """
    K = ring.precision
    C = closure_of_matrices([g.reduce(k) for g in gens], k, cap=cap)
    a = C.p_part
    if not ring.is_mixed and a > 0:
        raise CharPUnsupported(
            "equal characteristic repair requires an image of order coprime to p")
    if k <= 2 * a:
        raise HypothesisViolated(f"need defect level k > 2l (k={k}, l={a})")
    j = k - a
    target = min(2 * j, K)
    mod_exp = target - j
    sigma = _tree_section(C, gens)
    sigma_inv = _tree_section(C, [g.inv() for g in gens], inverse=True)
    z = _cocycle_rows(sigma, sigma_inv, C, j, mod_exp)
    amin = min(a, mod_exp)
    for row in z.rows.values():
        for v in row:
            if v.min_valuation() < amin:
                raise RepairError("cocycle values are not divisible by the p-part")

    def corrected(c: Sequence[UMatrix]) -> Tuple[List[UMatrix], int]:
        # Both solvers return c with delta c = z, so -c cancels the failure.
        fixed = [(-m).lift_to(ring).congruence_lift(j) @ sm for m, sm in zip(c, sigma)]
        return [fixed[s] for s in C.generator_indices], _section_defect_val(fixed, C)

    method = "averaging"
    cand = _avg_candidate(z)
    measured = -1
    if cand is not None:
        new_gens, measured = corrected(cand)
    if measured < target:
        method = "linear-solve"
        new_gens, measured = corrected(_solve_h2_linear(z))
        if measured < target:
            raise Unsolvable(
                f"lift step failed to reach level {target} (got {measured})",
                measured)
    return new_gens, LedgerStep(measured, j, method)


def _lift_to_exact(ring: RingSpec, n: int, gens: Sequence[UMatrix], k: int, cap: int,
                   steps: List[LedgerStep]) -> Sequence[UMatrix]:
    """Lifting steps from defect level k until the images are exact at K."""
    K = ring.precision
    iterations = 0
    while k < K:
        if iterations >= K:
            raise RepairError("lifting loop exceeded its iteration bound")
        gens, step = _section_lift_once(ring, n, gens, k, cap)
        steps.append(step)
        k = step.defect_val_after
        iterations += 1
    return gens


def repair_finite_image(rep: ApproxRep, cap: int = DEFAULT_CLOSURE_CAP
                        ) -> Tuple[ApproxRep, PrecisionLedger]:
    """Repair a representation into an exact homomorphism at precision K.

    The output factors through the finite image C of the input at its
    defect level; the distance moved is at most p^l * defect where
    p^l = p-part of |C|.  Every claim is re-measured before returning.
    """
    ring = rep.ring
    K = ring.precision
    d = rep.defect()
    if d.saturated:
        ledger = PrecisionLedger(initial_defect_val=K, p_part=0,
                                 working_precision=K, verified=True)
        ledger.final_distance_val = K
        try:
            ledger.image_order = closure_of_matrices(list(rep.images), K,
                                                     cap=cap).order
        except CapExceeded:
            pass
        return rep, ledger
    k0 = d.valuation
    if k0 < 1:
        raise DefectTooLarge("defect must be < 1 (some relator fails mod w)")
    C0 = finite_image(rep, k0, cap=cap)
    l0 = C0.p_part
    if not ring.is_mixed and l0 > 0:
        raise CharPUnsupported(
            "equal characteristic repair needs a p'-image; "
            "order-2 images route through the involution repair")
    if k0 <= 2 * l0:
        raise HypothesisViolated(f"need defect level k > 2l (k={k0}, l={l0})")

    ledger = PrecisionLedger(initial_defect_val=k0, p_part=l0,
                             image_order=C0.order, working_precision=K)
    gens = _lift_to_exact(ring, rep.n, rep.images, k0, cap, ledger.steps)
    out = rep.with_images(gens)
    if not out.defect().saturated:
        raise RepairError("repaired representation is not exact at precision K")
    dist = rep.rep_dist(out)
    ledger.final_distance_val = dist.valuation
    if not dist <= NormValue.from_valuation(ring, k0 - l0):
        raise RepairError("repair moved farther than the certified bound")
    if C0.order <= cap:
        img = closure_of_matrices(list(out.images), K, cap=cap)
        ledger.image_order = img.order
        if C0.order % img.order != 0:
            raise RepairError("repaired image order does not divide |C|")
    ledger.verified = True
    return out, ledger


# ---------------------------------------------------------------------------
# Conjugacy (1-cocycle) solving
# ---------------------------------------------------------------------------


def build_discrepancy_cochain(psi1: Sequence[UMatrix], psi2: Sequence[UMatrix],
                              C: FiniteImage, level: int, mod_exp: int) -> Cochain1:
    """Coordinates of psi2(g) psi1(g)^{-1} for two homs agreeing coarsely."""
    values: Dict[int, UMatrix] = {}
    for g in range(C.order):
        diff = psi2[g] @ psi1[g].inv()
        values[g] = diff.congruence_coords(level).reduce(mod_exp)
    return Cochain1(C, level, mod_exp, values)


def solve_h1_conjugator(disc: Cochain1, C: FiniteImage, act: Sequence[UMatrix],
                        act_inv: Sequence[UMatrix], *,
                        force_linear: bool = False) -> UMatrix:
    """A matrix T (in coordinates) with g.T - T = -D(g) for all g.

    Averaging: summing the cocycle identity gives |C| D(g) = b - g.b with
    b = sum_h D(h), so T = b / |C| works; division by the p-part is exact
    on divisible values and the linear solver covers the rest.
    """
    ring_q = act[0].ring
    n = act[0].n
    a = C.p_part
    ok = not force_linear and a < ring_q.precision
    t = UMatrix.zero(ring_q, n)
    if ok:
        minv = ring_q.inv(ring_q.from_int(C.unit_part))
        b = UMatrix.zero(ring_q, n)
        for g in range(C.order):
            b = b + disc.values[g]
        t = b.scale(minv)
        if a:
            if t.min_valuation() < a:
                ok = False
            else:
                t = UMatrix(ring_q, n,
                            tuple(tuple(ring_q.shift_down(x, a) for x in row)
                                  for row in t.rows))
    tol = disc.mod_exp - a
    if ok and tol > 0:
        for g in range(C.order):
            lhs = act[g] @ t @ act_inv[g] - t + disc.values[g]
            if lhs.min_valuation() < tol:
                ok = False
                break
    if ok and tol > 0:
        return t
    # Exact linear solve: unknown T with g.T - T = -D(g) at generator classes.
    nvars = n * n
    rows: List[List[int]] = []
    rhs: List[int] = []
    for s in _generator_classes(C):
        us, uinv = act[s], act_inv[s]
        dv = disc.values[s]
        for r in range(n):
            for c in range(n):
                row = [0] * nvars
                for a_ in range(n):
                    ura = us.rows[r][a_]
                    if ura == 0:
                        continue
                    for b_ in range(n):
                        coef = ring_q.mul(ura, uinv.rows[b_][c])
                        if coef:
                            row[a_ * n + b_] = ring_q.add(row[a_ * n + b_], coef)
                row[r * n + c] = ring_q.sub(row[r * n + c], ring_q.one)
                rows.append(row)
                rhs.append(ring_q.neg(dv.rows[r][c]))
    res = solve_linear(rows, rhs, ring_q)
    x = res.particular
    t = UMatrix(ring_q, n, tuple(tuple(x[r * n + c] for c in range(n)) for r in range(n)))
    for g in range(C.order):
        lhs = act[g] @ t @ act_inv[g] - t + disc.values[g]
        if lhs.min_valuation() < disc.mod_exp:
            raise Unsolvable("conjugator system has no exact solution",
                             lhs.min_valuation())
    return t


def _agreement_val(psi1: Sequence[UMatrix], psi2: Sequence[UMatrix]) -> int:
    K = psi1[0].ring.precision
    best = K
    for m1, m2 in zip(psi1, psi2):
        v = (m1 - m2).min_valuation()
        if v < best:
            best = v
    return best


def align_homomorphisms(psi1: Sequence[UMatrix], psi2: Sequence[UMatrix],
                        C: FiniteImage) -> Tuple[UMatrix, List[LedgerStep]]:
    """Find t with t psi1(g) t^{-1} = psi2(g) exactly, for all g.

    Both inputs must be genuine homomorphisms of C at full precision that
    agree at some positive level; t lies in the congruence ball of that
    level minus the p-part.  Precision doubles each round.
    """
    ring = psi1[0].ring
    n = psi1[0].n
    K = ring.precision
    a = C.p_part
    if not ring.is_mixed and a > 0:
        raise CharPUnsupported("equal characteristic alignment needs a p'-image")
    cur = list(psi1)
    total = UMatrix.identity(ring, n)
    steps: List[LedgerStep] = []
    rounds = 0
    while True:
        k = _agreement_val(cur, psi2)
        if k >= K:
            break
        if k <= 2 * a:
            raise HypothesisViolated(f"homomorphisms agree only at level {k} <= 2l")
        if rounds >= K:
            raise RepairError("alignment loop exceeded its iteration bound")
        j = k - a
        target = min(2 * j, K)
        mod_exp = target - j
        act = [m.reduce(mod_exp) for m in psi2]
        act_inv = [m.inv().reduce(mod_exp) for m in psi2]
        disc = build_discrepancy_cochain(cur, psi2, C, j, mod_exp)
        tmat = solve_h1_conjugator(disc, C, act, act_inv)
        tfull = tmat.lift_to(ring).congruence_lift(j)
        tinv = tfull.inv()
        moved = [tfull @ m @ tinv for m in cur]
        got = _agreement_val(moved, psi2)
        if got < target:
            tmat = solve_h1_conjugator(disc, C, act, act_inv, force_linear=True)
            tfull = tmat.lift_to(ring).congruence_lift(j)
            tinv = tfull.inv()
            moved = [tfull @ m @ tinv for m in cur]
            got = _agreement_val(moved, psi2)
            if got < target:
                raise Unsolvable(f"alignment failed to reach level {target}", got)
        cur = moved
        steps.append(LedgerStep(got, j, "conjugation"))
        total = tfull @ total
        rounds += 1
    return total, steps


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

    def vertex(self, name: str) -> GogVertex:
        return next(v for v in self.vertices if v.name == name)

    def standard_presentation(self) -> Presentation:
        gens: List[str] = []
        for v in self.vertices:
            gens.extend(v.generators)
        for e in self.edges:
            gens.append(e.letter)
        relators: List[List[str]] = []
        for v in self.vertices:
            relators.extend([list(r) for r in v.relators])
        for e in self.edges:
            conj = ([e.letter] + list(e.word_source) + [f"{e.letter}^-1"]
                    + _invert_tokens(e.word_target))
            relators.append(conj)
            if e.in_tree:
                relators.append([e.letter])
        return Presentation.make(gens, relators)

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


def _invert_tokens(tokens: Sequence[str]) -> List[str]:
    out = []
    for tok in reversed(tokens):
        if tok.endswith("^-1"):
            out.append(tok[:-3])
        else:
            out.append(f"{tok}^-1")
    return out


def _eval_tokens(images: Dict[str, UMatrix], tokens: Sequence[str],
                 ring: RingSpec, n: int) -> UMatrix:
    out = UMatrix.identity(ring, n)
    for tok in tokens:
        if tok.endswith("^-1"):
            out = out @ images[tok[:-3]].inv()
        else:
            out = out @ images[tok]
    return out


def _hom_from_closure(gen_mats: List[UMatrix], C: FiniteImage, level: int,
                      cap: int) -> List[UMatrix]:
    """Elementwise hom C -> GL at full precision from exact-order generators.

    Requires the full-precision closure of the generators to reduce
    bijectively onto C; the returned list is indexed like C's elements.
    """
    ring = gen_mats[0].ring
    K = ring.precision
    full = closure_of_matrices(gen_mats, K, cap=cap)
    if full.order != C.order:
        raise HypothesisViolated(
            f"edge subgroup grows under precision refinement "
            f"({C.order} -> {full.order}): order bound hypothesis fails")
    out: List[Optional[UMatrix]] = [None] * C.order
    for elem in full.elements:
        idx = C.index_of(elem.reduce(level))
        if out[idx] is not None:
            raise HypothesisViolated("edge subgroup does not reduce bijectively")
        out[idx] = elem
    return out  # type: ignore[return-value]


def graph_repair(gog: GraphOfGroups, rep: ApproxRep, cap: int = DEFAULT_CLOSURE_CAP
                 ) -> Tuple[ApproxRep, PrecisionLedger]:
    """Repair a representation of a graph-of-groups presentation.

    Tree edge letters are sent to the identity, each vertex is repaired
    through its finite image, amalgamations along a spanning tree and the
    remaining edge letters are corrected by solved conjugators.  The output
    satisfies every relator exactly; the distance moved is at most
    p^l * defect for the largest p-part l met along the way.
    """
    pres = gog.standard_presentation()
    if rep.presentation != pres:
        raise PresentationError(
            "representation does not carry the standard graph-of-groups presentation")
    ring = rep.ring
    n = rep.n
    K = ring.precision
    d = rep.defect()
    if d.saturated:
        ledger = PrecisionLedger(initial_defect_val=K, p_part=0,
                                 working_precision=K, verified=True)
        ledger.final_distance_val = K
        return rep, ledger
    k0 = d.valuation
    if k0 < 1:
        raise DefectTooLarge("defect must be < 1")

    images: Dict[str, UMatrix] = {
        name: rep.images[i] for i, name in enumerate(pres.generators)
    }
    steps: List[LedgerStep] = []

    # (1) tree edge letters become the identity.
    for e in gog.edges:
        if e.in_tree:
            images[e.letter] = UMatrix.identity(ring, n)

    # (2) vertex repairs through their finite images at the defect level.
    for v in gog.vertices:
        if not v.generators:
            continue
        gens = _lift_to_exact(ring, n, [images[g] for g in v.generators], k0, cap,
                              steps)
        for name, mat in zip(v.generators, gens):
            images[name] = mat

    # (3) amalgamate along a BFS spanning tree rooted at the first vertex.
    order = {v.name: i for i, v in enumerate(gog.vertices)}
    adjacency: Dict[str, List[GogEdge]] = {v.name: [] for v in gog.vertices}
    for e in gog.edges:
        if e.in_tree:
            adjacency[e.source].append(e)
            adjacency[e.target].append(e)
    root = gog.vertices[0].name
    visited = {root}
    queue = [root]
    tree_order: List[Tuple[GogEdge, str]] = []  # (edge, child vertex)
    while queue:
        cur = queue.pop(0)
        for e in sorted(adjacency[cur], key=lambda e: order[e.source] + order[e.target]):
            other = e.target if e.source == cur else e.source
            if other not in visited:
                visited.add(other)
                queue.append(other)
                tree_order.append((e, other))
    if len(visited) != len(gog.vertices):
        raise PresentationError("spanning tree does not reach every vertex")

    def edge_sides(e: GogEdge) -> Tuple[UMatrix, UMatrix]:
        src = _eval_tokens(images, e.word_source, ring, n)
        tgt = _eval_tokens(images, e.word_target, ring, n)
        return src, tgt

    for e, child in tree_order:
        src, tgt = edge_sides(e)
        # With t_e = I the relation says src = tgt exactly; conjugate the
        # child's vertex images so that its side lands on the parent's.
        parent_side, child_side = (src, tgt) if child == e.target else (tgt, src)
        k_agree = (parent_side - child_side).min_valuation()
        if k_agree >= K:
            continue
        Ce = closure_of_matrices([parent_side.reduce(k_agree)], k_agree, cap=cap)
        psi_parent = _hom_from_closure([parent_side], Ce, k_agree, cap)
        psi_child = _hom_from_closure([child_side], Ce, k_agree, cap)
        t, st = align_homomorphisms(psi_child, psi_parent, Ce)
        steps.extend(st)
        tinv = t.inv()
        for g in gog.vertex(child).generators:
            images[g] = t @ images[g] @ tinv

    # (4) non-tree edge letters are corrected by conjugators.
    for e in gog.edges:
        if e.in_tree:
            continue
        src, tgt = edge_sides(e)
        t0 = images[e.letter]
        conj_src = t0 @ src @ t0.inv()
        k_agree = (conj_src - tgt).min_valuation()
        if k_agree >= K:
            continue
        Ce = closure_of_matrices([tgt.reduce(k_agree)], k_agree, cap=cap)
        t0inv = t0.inv()
        psi_src = _hom_from_closure([conj_src], Ce, k_agree, cap)
        psi_tgt = _hom_from_closure([tgt], Ce, k_agree, cap)
        t, st = align_homomorphisms(psi_src, psi_tgt, Ce)
        steps.extend(st)
        images[e.letter] = t @ t0

    out = ApproxRep(pres, ring, n,
                    [images[name] for name in pres.generators])
    # The certified loss is the shallowest correction level actually spent;
    # with p'-images everywhere it is zero and the estimate is optimal.
    j_min = min((s.distance_spent_val for s in steps), default=k0)
    loss = max(0, k0 - j_min)
    ledger = PrecisionLedger(initial_defect_val=k0, p_part=loss,
                             steps=steps, working_precision=K)
    if not out.defect().saturated:
        raise RepairError("graph repair left a relator inexact")
    dist = rep.rep_dist(out)
    ledger.final_distance_val = dist.valuation
    if not dist <= NormValue.from_valuation(ring, k0 - loss):
        raise RepairError("graph repair moved farther than the certified bound")
    ledger.verified = True
    return out, ledger
