"""Split-section repair for two filtration-metric families.

Invertible upper-triangular matrices over Z/m carry the column
filtration (distance eps_k when the first k columns agree); truncated
rooted-tree automorphisms carry the level filtration.  In both families
the metric quotient at scale eps_k splits back into the group (pad with
the identity block, respectively act trivially below level k), so a map
of defect eps_k snaps onto an exact homomorphism at distance eps_k:
project every generator image to the quotient and re-embed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .presentations import DefectTooLarge, Presentation, PresentationError, Word


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class ScaleValue:
    """A filtration scale eps_level, or below_finest when elements agree fully."""

    level: int
    value: Fraction
    below_finest: bool = False

    def encode(self) -> dict:
        return {"level": self.level, "below_finest": self.below_finest,
                "value": [self.value.numerator, self.value.denominator]}


@dataclass(frozen=True)
class FiltrationMetricSpec:
    """Family tag plus the strictly decreasing scale sequence (default 2^-k)."""

    kind: str  # "triangular" or "tree"
    modulus: int = 0        # triangular: entries in Z/modulus
    dimension: int = 0      # triangular: matrix size
    alphabet: int = 0       # tree: branching degree
    depth: int = 0          # tree: truncation depth
    scale_base: int = 2

    def __post_init__(self):
        if self.kind not in ("triangular", "tree"):
            raise FamilyError(f"unknown family {self.kind!r}")
        if self.kind == "triangular" and (self.modulus < 2 or self.dimension < 1):
            raise FamilyError("triangular family needs modulus >= 2 and dimension >= 1")
        if self.kind == "tree" and (self.alphabet < 2 or self.depth < 1):
            raise FamilyError("tree family needs alphabet >= 2 and depth >= 1")
        if self.scale_base < 2:
            raise FamilyError("scale base must be >= 2")

    def scale(self, k: int) -> Fraction:
        return Fraction(1, self.scale_base ** k)

    @property
    def max_level(self) -> int:
        return self.dimension if self.kind == "triangular" else self.depth

    def to_json(self) -> dict:
        return {"kind": self.kind, "modulus": self.modulus,
                "dimension": self.dimension, "alphabet": self.alphabet,
                "depth": self.depth, "scale_base": self.scale_base}

    @classmethod
    def from_json(cls, obj: dict) -> "FiltrationMetricSpec":
        return cls(kind=obj["kind"], modulus=obj.get("modulus", 0),
                   dimension=obj.get("dimension", 0),
                   alphabet=obj.get("alphabet", 0), depth=obj.get("depth", 0),
                   scale_base=obj.get("scale_base", 2))


# ---------------------------------------------------------------------------
# Upper-triangular matrices over Z/m
# ---------------------------------------------------------------------------


class TriangularOps:
    """Invertible upper-triangular matrices over Z/m as tuples of rows."""

    def __init__(self, n: int, modulus: int):
        self.n = n
        self.m = modulus

    def identity(self):
        n = self.n
        return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    def validate(self, g) -> None:
        n, m = self.n, self.m
        for i in range(n):
            for j in range(i):
                if g[i][j] % m:
                    raise FamilyError("matrix is not upper triangular")
            if math.gcd(g[i][i], m) != 1:
                raise FamilyError("diagonal entry is not a unit")

    def mul(self, g, h):
        n, m = self.n, self.m
        return tuple(
            tuple(sum(g[i][t] * h[t][j] for t in range(i, j + 1)) % m if j >= i else 0
                  for j in range(n))
            for i in range(n)
        )

    def inv(self, g):
        n, m = self.n, self.m
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            out[i][i] = pow(g[i][i], -1, m)
        for j in range(n):
            for i in range(j - 1, -1, -1):
                s = sum(g[i][t] * out[t][j] for t in range(i + 1, j + 1)) % m
                out[i][j] = (-pow(g[i][i], -1, m) * s) % m
        return tuple(tuple(r) for r in out)

    def agree_level(self, g, h) -> int:
        """Largest k such that the first k columns coincide."""
        n = self.n
        for j in range(n):
            for i in range(n):
                if (g[i][j] - h[i][j]) % self.m:
                    return j
        return n

    def project(self, g, k: int):
        return tuple(tuple(g[i][j] for j in range(k)) for i in range(k))

    def embed(self, gk):
        """gk's k x k block padded with the identity, k = len(gk)."""
        n, k = self.n, len(gk)
        return tuple(
            tuple(gk[i][j] if (i < k and j < k) else (1 if i == j else 0)
                  for j in range(n))
            for i in range(n)
        )


# ---------------------------------------------------------------------------
# Truncated rooted-tree automorphisms (portraits)
# ---------------------------------------------------------------------------


class TreeAutOps:
    """Depth-D automorphisms as portraits (perm, children-tuple); leaves are ()."""

    def __init__(self, alphabet: int, depth: int):
        self.q = alphabet
        self.depth = depth

    def identity(self, depth: Optional[int] = None):
        d = self.depth if depth is None else depth
        if d == 0:
            return ()
        ident_perm = tuple(range(self.q))
        child = self.identity(d - 1)
        return (ident_perm, tuple(child for _ in range(self.q)))

    def validate(self, g, depth: Optional[int] = None) -> None:
        d = self.depth if depth is None else depth
        if d == 0:
            if g != ():
                raise FamilyError("leaf portrait must be empty")
            return
        perm, children = g
        if sorted(perm) != list(range(self.q)):
            raise FamilyError("node label is not a permutation")
        if len(children) != self.q:
            raise FamilyError("portrait has wrong arity")
        for c in children:
            self.validate(c, d - 1)

    def mul(self, g, h):
        """(g * h)(v) = g(h(v))."""
        if g == ():
            return ()
        pg, cg = g
        ph, ch = h
        perm = tuple(pg[ph[x]] for x in range(self.q))
        children = tuple(self.mul(cg[ph[x]], ch[x]) for x in range(self.q))
        return (perm, children)

    def inv(self, g):
        if g == ():
            return ()
        pg, cg = g
        inv_perm = [0] * self.q
        for x in range(self.q):
            inv_perm[pg[x]] = x
        children = tuple(self.inv(cg[inv_perm[x]]) for x in range(self.q))
        return (tuple(inv_perm), children)

    def agree_level(self, g, h) -> int:
        """Largest k <= depth such that both act identically on level k."""
        if g == () or h == ():
            return 0

        def walk(a, b, d):
            if a == () or b == ():
                return d
            pa, ca = a
            pb, cb = b
            if pa != pb:
                return d
            return min(walk(ca[x], cb[x], d + 1) for x in range(self.q))

        return walk(g, h, 0)

    def project(self, g, k: int):
        if k == 0 or g == ():
            return ()
        perm, children = g
        return (perm, tuple(self.project(c, k - 1) for c in children))

    def embed(self, gk, depth: Optional[int] = None):
        d = self.depth if depth is None else depth
        if d == 0:
            return ()
        if gk == ():
            return self.identity(d)
        perm, children = gk
        return (perm, tuple(self.embed(c, d - 1) for c in children))


# ---------------------------------------------------------------------------
# Filtration representations and the split-section repair
# ---------------------------------------------------------------------------


class FiltrationRep:
    """A presentation plus one family element per generator."""

    def __init__(self, presentation: Presentation, spec: FiltrationMetricSpec,
                 images: Sequence):
        if len(images) != len(presentation.generators):
            raise PresentationError("one image per generator required")
        self.presentation = presentation
        self.spec = spec
        self.ops = _ops_for(spec)
        for img in images:
            self.ops.validate(img)
        self.images = tuple(images)
        self._inverses = tuple(self.ops.inv(img) for img in images)

    def eval_word(self, w: Word):
        out = self.ops.identity()
        for x in w.letters:
            out = self.ops.mul(out, self.images[x - 1] if x > 0
                               else self._inverses[-x - 1])
        return out

    def defect(self) -> ScaleValue:
        ident = self.ops.identity()
        return _coarsest((filtration_dist(self.eval_word(r), ident, self.spec)
                          for r in self.presentation.relators), self.spec)

    def rep_dist(self, other: "FiltrationRep") -> ScaleValue:
        return _coarsest((filtration_dist(a, b, self.spec)
                          for a, b in zip(self.images, other.images)), self.spec)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "filtration_rep",
            "family": self.spec.to_json(),
            "presentation": self.presentation.to_json(),
            "images": [_encode_elem(self.spec, img) for img in self.images],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FiltrationRep":
        spec = FiltrationMetricSpec.from_json(obj["family"])
        pres = Presentation.from_json(obj["presentation"])
        images = [_decode_elem(spec, e) for e in obj["images"]]
        return cls(pres, spec, images)


def _ops_for(spec: FiltrationMetricSpec):
    if spec.kind == "triangular":
        return TriangularOps(spec.dimension, spec.modulus)
    return TreeAutOps(spec.alphabet, spec.depth)


def _encode_elem(spec: FiltrationMetricSpec, elem):
    if spec.kind == "triangular":
        return [list(row) for row in elem]

    def enc(node):
        if node == ():
            return None
        perm, children = node
        return [list(perm), [enc(c) for c in children]]

    return enc(elem)


def _decode_elem(spec: FiltrationMetricSpec, obj):
    if spec.kind == "triangular":
        return tuple(tuple(int(x) % spec.modulus for x in row) for row in obj)

    def dec(node):
        if node is None:
            return ()
        perm, children = node
        return (tuple(int(x) for x in perm), tuple(dec(c) for c in children))

    return dec(obj)


def filtration_dist(g, h, spec: FiltrationMetricSpec) -> ScaleValue:
    """eps_k for the level k at which g and h agree, below_finest from max_level on."""
    k = _ops_for(spec).agree_level(g, h)
    if k >= spec.max_level:
        return ScaleValue(spec.max_level, Fraction(0), True)
    return ScaleValue(k, spec.scale(k))


def _coarsest(dists, spec: FiltrationMetricSpec) -> ScaleValue:
    """The distance at the lowest level; below_finest when there is none."""
    return min(dists, key=lambda d: d.level,
               default=ScaleValue(spec.max_level, Fraction(0), True))


def split_section_repair(rep: FiltrationRep) -> Tuple[FiltrationRep, ScaleValue]:
    """Project to the defect-level metric quotient and re-embed.

    The defect eps_k means the induced map to the level-k quotient is a
    homomorphism; the canonical section (identity padding, or trivial
    action below level k) turns it back into an exact homomorphism at
    distance exactly at most eps_k.
    """
    d = rep.defect()
    if d.below_finest:
        return rep, d
    k = d.level
    if k == 0:
        raise DefectTooLarge("defect is the full scale; no quotient to use")
    ops = rep.ops
    new_images = [ops.embed(ops.project(img, k)) for img in rep.images]
    out = FiltrationRep(rep.presentation, rep.spec, new_images)
    if not out.defect().below_finest:
        raise FamilyError("split-section repair left a relator inexact")
    moved = rep.rep_dist(out)
    if not (moved.below_finest or moved.value <= d.value):
        raise FamilyError("split-section repair moved farther than the defect")
    return out, moved
