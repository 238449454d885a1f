"""Words, finite presentations, approximate representations, finite images.

An approximate representation assigns one invertible matrix to each
generator of a finite presentation; inverse letters act by the exact
matrix inverse, so the assignment is a genuine homomorphism of the free
group and its failure is measured entirely on the relators.  When the
defect is at most p^{-m}, reduction mod w^m is an honest homomorphism and
the finite subgroup it generates can be enumerated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .local_ring import NormValue, RingMismatch, RingSpec, norm_max
from .ultranorm_linalg import UMatrix

DEFAULT_CLOSURE_CAP = 10 ** 6


class PresentationError(ValueError):
    pass


class DefectTooLarge(RuntimeError):
    pass


class CapExceeded(RuntimeError):
    pass


_LETTER_RE = re.compile(r"^([^\^\s]+)(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class Word:
    """A freely reduced word in signed 1-based generator indices."""

    letters: Tuple[int, ...]

    @staticmethod
    def _reduce(letters: Iterable[int]) -> Tuple[int, ...]:
        out: List[int] = []
        for x in letters:
            if x == 0:
                raise PresentationError("zero letter in word")
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    @classmethod
    def make(cls, letters: Iterable[int]) -> "Word":
        return cls(cls._reduce(letters))

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def generator(cls, index: int, power: int = 1) -> "Word":
        if power >= 0:
            return cls.make([index + 1] * power)
        return cls.make([-(index + 1)] * (-power))

    @classmethod
    def parse(cls, tokens: Sequence[str], names: Sequence[str]) -> "Word":
        lookup = {name: i + 1 for i, name in enumerate(names)}
        letters: List[int] = []
        for tok in tokens:
            m = _LETTER_RE.match(tok)
            if not m or m.group(1) not in lookup:
                raise PresentationError(f"unknown letter {tok!r}")
            idx = lookup[m.group(1)]
            power = int(m.group(2)) if m.group(2) else 1
            letters.extend([idx if power > 0 else -idx] * abs(power))
        return cls.make(letters)

    def unparse(self, names: Sequence[str]) -> List[str]:
        return [names[x - 1] if x > 0 else f"{names[-x - 1]}^-1" for x in self.letters]

    def __mul__(self, other: "Word") -> "Word":
        return Word.make(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class Presentation:
    generators: Tuple[str, ...]
    relators: Tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator names")
        ngen = len(self.generators)
        for r in self.relators:
            if any(abs(x) > ngen for x in r.letters):
                raise PresentationError("relator uses undeclared generator")

    @classmethod
    def make(cls, generators: Sequence[str], relators: Sequence[Sequence[str]] = ()) -> "Presentation":
        gens = tuple(generators)
        return cls(gens, tuple(Word.parse(r, gens) for r in relators))

    @classmethod
    def free(cls, generators: Sequence[str]) -> "Presentation":
        return cls(tuple(generators), ())

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [r.unparse(self.generators) for r in self.relators],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Presentation":
        return cls.make(obj["generators"], obj.get("relators", []))


class ApproxRep:
    """A finite presentation plus one invertible matrix per generator."""

    def __init__(self, presentation: Presentation, ring: RingSpec, n: int,
                 images: Sequence[UMatrix]):
        if len(images) != len(presentation.generators):
            raise PresentationError("one image per generator required")
        for img in images:
            if img.ring != ring or img.n != n:
                raise RingMismatch("image matrix has wrong ring or size")
            if not img.is_gl():
                raise PresentationError("generator image is not invertible")
        self.presentation = presentation
        self.ring = ring
        self.n = n
        self.images = tuple(images)
        self._inverses = tuple(img.inv() for img in self.images)

    def image_of(self, name: str) -> UMatrix:
        return self.images[self.presentation.generators.index(name)]

    def with_images(self, images: Sequence[UMatrix]) -> "ApproxRep":
        return ApproxRep(self.presentation, self.ring, self.n, images)

    def eval_word(self, w: Word) -> UMatrix:
        out = UMatrix.identity(self.ring, self.n)
        for x in w.letters:
            out = out @ (self.images[x - 1] if x > 0 else self._inverses[-x - 1])
        return out

    def defect(self) -> NormValue:
        ident = UMatrix.identity(self.ring, self.n)
        return norm_max((self.eval_word(r).dist(ident) for r in self.presentation.relators),
                        self.ring)

    def rep_dist(self, other: "ApproxRep") -> NormValue:
        if (self.presentation != other.presentation or self.ring != other.ring
                or self.n != other.n):
            raise RingMismatch("representations are not comparable")
        return norm_max((a.dist(b) for a, b in zip(self.images, other.images)), self.ring)

    def reduce(self, m: int) -> "ApproxRep":
        return ApproxRep(self.presentation, self.ring.with_precision(m), self.n,
                         [img.reduce(m) for img in self.images])

    def to_json(self) -> dict:
        enc = self.ring.encode
        return {
            "schema_version": 1,
            "kind": "approx_rep",
            "presentation": self.presentation.to_json(),
            "ring": self.ring.describe(),
            "n": self.n,
            "images": [[enc(a) for row in img.rows for a in row] for img in self.images],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ApproxRep":
        pres = Presentation.from_json(obj["presentation"])
        ring = RingSpec.from_json(obj["ring"])
        n = int(obj["n"])
        dec = ring.decode
        images = []
        for flat in obj["images"]:
            if len(flat) != n * n:
                raise PresentationError("image entry count mismatch")
            rows = tuple(tuple(dec(flat[i * n + j]) for j in range(n)) for i in range(n))
            images.append(UMatrix(ring, n, rows))
        return cls(pres, ring, n, images)


class FiniteImage:
    """The finite subgroup generated by reduced generator images mod w^m.

    Elements are stored in deterministic BFS order (by generator index);
    element 0 is the identity and tree[i] = (parent, generator) records
    the BFS tree edge that first reached element i > 0, so that
    elements[i] = elements[parent] @ generators[generator] (tree[0] is
    (-1, -1)).  Products are looked up lazily and cached so large groups
    never materialize an order-squared table.
    """

    def __init__(self, level: int, ring: RingSpec, elements: List[UMatrix],
                 index: Dict[Tuple, int], tree: List[Tuple[int, int]],
                 generator_indices: List[int], p: int):
        self.level = level
        self.ring = ring
        self.elements = elements
        self.index = index
        self.tree = tree
        self.generator_indices = generator_indices
        self.order = len(elements)
        n = self.order
        l = 0
        while n % p == 0:
            n //= p
            l += 1
        self.p_part = l
        self.unit_part = n
        self._products: Dict[Tuple[int, int], int] = {}
        self._inverses: Dict[int, int] = {}

    def index_of(self, mat: UMatrix) -> int:
        try:
            return self.index[mat.rows]
        except KeyError:
            raise PresentationError("matrix is not an element of the finite image")

    def product(self, i: int, j: int) -> int:
        key = (i, j)
        got = self._products.get(key)
        if got is None:
            got = self.index_of(self.elements[i] @ self.elements[j])
            self._products[key] = got
        return got

    def inverse(self, i: int) -> int:
        got = self._inverses.get(i)
        if got is None:
            j = i
            prev = 0
            while True:
                nxt = self.product(j, i)
                if nxt == 0:
                    got = j
                    break
                prev, j = j, nxt
            self._inverses[i] = got
        return got

    def element_order(self, i: int) -> int:
        o = 1
        j = i
        while j != 0:
            j = self.product(j, i)
            o += 1
        return o


def finite_image(rep: ApproxRep, m: int, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteImage:
    """Enumerate the subgroup of GL_n(o/w^m) generated by the reduced images.

    Requires defect(rep) <= p^{-m}, so that the reduction is a genuine
    homomorphism of the presented group.
    """
    d = rep.defect()
    if not d <= NormValue.from_valuation(rep.ring, m):
        raise DefectTooLarge(f"defect {d!r} exceeds p^-{m}")
    reduced = [img.reduce(m) for img in rep.images]
    return closure_of_matrices(reduced, m, cap=cap)


def closure_of_matrices(reduced: Sequence[UMatrix], m: int,
                        cap: int = DEFAULT_CLOSURE_CAP) -> FiniteImage:
    """BFS closure of a list of matrices over the precision-m ring."""
    if not reduced:
        raise PresentationError("need at least one generator")
    ring = reduced[0].ring
    n = reduced[0].n
    ident = UMatrix.identity(ring, n)
    elements = [ident]
    index = {ident.rows: 0}
    tree: List[Tuple[int, int]] = [(-1, -1)]
    frontier = [0]
    while frontier:
        new_frontier = []
        for ei in frontier:
            base = elements[ei]
            for gi, g in enumerate(reduced):
                prod = base @ g
                if prod.rows not in index:
                    if len(elements) >= cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
                    index[prod.rows] = len(elements)
                    elements.append(prod)
                    tree.append((ei, gi))
                    new_frontier.append(len(elements) - 1)
        frontier = new_frontier
    gen_idx = [index[g.rows] for g in reduced]
    return FiniteImage(m, ring, elements, index, tree, gen_idx, ring.p)
