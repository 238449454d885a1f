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
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    def parse(cls, tokens: Sequence[str], names: Sequence[str]) -> "Word":
        lookup = {name: i + 1 for i, name in enumerate(names)}
        letters: List[int] = []
        for tok in tokens:
            if not isinstance(tok, str):
                raise PresentationError(f"letter {tok!r} is not a string")
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

    @cached_property
    def period(self) -> Tuple[Tuple[int, ...], int]:
        """(u, e) with this word u^e and u shortest, found once per Word:
        the least d dividing |w| whose d-letter prefix, repeated, is w."""
        w, m = self.letters, len(self.letters)
        for d in range(1, m // 2 + 1):
            if m % d == 0 and w[-d:] == w[:d] and w[:d] * (m // d) == w:
                return w[:d], m // d
        return w, 1


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


def word_value(w: Word, images: Sequence[UMatrix], inverses: Dict[int, UMatrix],
               ring: RingSpec, n: int) -> UMatrix:
    """The value of w on generator images, and the identity on the empty word.

    w = u^e with u its shortest root (`Word.period`): the value of u, |u| - 1
    matmuls with no identity factor, is raised to e by binary powering
    (Knuth, TAOCP vol. 2, 4.6.3), bitlen(e) - 1 squarings and popcount(e) - 1
    products, so |u| - 1 + O(log e) matmuls where the letters take e |u| - 1.
    A letter x_i^-1 reads inverses[i - 1], the caller's cache, inverting
    images[i - 1] on first use.
    """
    root, e = w.period
    out = None
    for x in root:
        if x > 0:
            m = images[x - 1]
        else:
            m = inverses.get(-x - 1)
            if m is None:
                m = inverses[-x - 1] = images[-x - 1].inv()
        out = m if out is None else out @ m
    if out is None:
        return UMatrix.identity(ring, n)
    power = out
    for bit in bin(e)[3:]:
        power = power @ power
        if bit == "1":
            power = power @ out
    return power


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
        self._inverses: Dict[int, UMatrix] = {}  # generator index -> image inverse, on first use

    def with_images(self, images: Sequence[UMatrix]) -> "ApproxRep":
        return ApproxRep(self.presentation, self.ring, self.n, images)

    def eval_word(self, w: Word) -> UMatrix:
        return word_value(w, self.images, self._inverses, self.ring, self.n)

    def relator_values(self) -> List[UMatrix]:
        """rho(r) per relator r, one `word_value` each."""
        return [self.eval_word(r) for r in self.presentation.relators]

    def defect(self) -> NormValue:
        """max over r of dist(rho(r), I), from min_r val(rho(r) - I)."""
        return NormValue.from_valuation(self.ring, min(
            (v.dist_valuation() for v in self.relator_values()), default=self.ring.precision))

    def rep_dist(self, other: "ApproxRep") -> NormValue:
        if (self.presentation != other.presentation or self.ring != other.ring
                or self.n != other.n):
            raise RingMismatch("representations are not comparable")
        return norm_max((a.dist(b) for a, b in zip(self.images, other.images)), self.ring)

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
    """The finite group C generated by reduced generator images, as tables.

    Classes are numbered in deterministic BFS order (by generator index);
    class 0 is the identity and tree[c] = (parent, g) records the BFS tree
    edge that first reached class c > 0, so c = parent x_g (tree[0] is
    (-1, -1)).  right[c][g] is the class c x_g, the right Cayley table that
    the closure computes, and back[g][c] the class c x_g^{-1}, its column g
    inverted, filled once with N |S| writes.  So a product in C by a letter
    is one table read and no matmul; C keeps no element matrices.
    """

    def __init__(self, tree: List[Tuple[int, int]], right: List[List[int]],
                 generator_indices: List[int], p: int):
        self.tree = tree
        self.right = right
        self.generator_indices = generator_indices
        self.order = len(tree)
        self.back = [[0] * self.order for _ in generator_indices]
        for c, row in enumerate(right):
            for g, d in enumerate(row):
                self.back[g][d] = c
        n, l = self.order, 0
        while n % p == 0:
            n //= p
            l += 1
        self.p_part = l

    def inverse(self, c: int) -> int:
        """The class c^{-1}: c's tree word read upward through `back`, O(depth) reads."""
        out = 0
        while c:
            c, g = self.tree[c]
            out = self.back[g][out]
        return out


def closure_of_matrices(reduced: Sequence[UMatrix],
                        cap: int = DEFAULT_CLOSURE_CAP) -> FiniteImage:
    """BFS closure of a list of matrices over their ring.

    |S| (N - 1) matmuls for N elements and |S| generators (the identity's
    products are the generators), each recorded in the right Cayley table.
    The element matrices live only during the search.
    """
    if not reduced:
        raise PresentationError("need at least one generator")
    ring = reduced[0].ring
    ident = UMatrix.identity(ring, reduced[0].n)
    elements = [ident]
    index = {ident.rows: 0}
    tree: List[Tuple[int, int]] = [(-1, -1)]
    right: List[List[int]] = []
    frontier = [0]
    while frontier:
        new_frontier = []
        for ei in frontier:
            base = elements[ei]
            row = []
            for gi, g in enumerate(reduced):
                prod = base @ g if ei else g
                got = index.get(prod.rows)
                if got is None:
                    if len(elements) >= cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
                    got = index[prod.rows] = len(elements)
                    elements.append(prod)
                    tree.append((ei, gi))
                    new_frontier.append(got)
                row.append(got)
            right.append(row)
        frontier = new_frontier
    return FiniteImage(tree, right, [index[g.rows] for g in reduced], ring.p)


def enumerate_cosets(ngens: int, relators: Sequence[Word], cap: int
                     ) -> Tuple[List[Tuple[int, int]], List[List[int]], int]:
    """<x_1..x_ngens | relators> by HLT coset enumeration: (tree, right, most).

    Hasse-Lyndon-Todd enumeration over the trivial subgroup (Holt, Eick,
    O'Brien, Handbook of Computational Group Theory, 5.1-5.2): each live
    coset in turn has every relator scanned and filled from it, then its
    undefined table entries defined, and a coincidence merges cosets into
    the smaller representative.  Column 2i is letter x_{i+1}, column 2i + 1
    its inverse.  At most about cap * sum |r| table steps.  Raises
    CapExceeded when a definition would make more than `cap` cosets live;
    an infinite group always does.  The closed table, the group's regular
    action, is renumbered by BFS over x_1, x_2, ... as `closure_of_matrices`
    numbers classes; `most`, the most live cosets a definition met (0 if
    none), is below a cap c >= 1 exactly when the run closes under c.
    """
    table: List[List[Optional[int]]] = [[None] * (2 * ngens)]
    rep = [0]
    live, most = 1, 0
    words = [[2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1 for x in r.letters] for r in relators]

    def find(c: int) -> int:
        while rep[c] != c:
            c = rep[c]
        return c

    def define(c: int, x: int) -> None:
        nonlocal live, most
        if live >= cap:
            raise CapExceeded(f"coset enumeration exceeded cap {cap}")
        most = max(most, live)
        table.append([None] * (2 * ngens))
        rep.append(len(rep))
        live += 1
        table[c][x] = len(table) - 1
        table[-1][x ^ 1] = c

    def merge(a: int, b: int, queue: List[int]) -> None:
        nonlocal live
        a, b = find(a), find(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            rep[b] = a
            live -= 1
            queue.append(b)

    def coincidence(a: int, b: int) -> None:
        queue: List[int] = []
        merge(a, b, queue)
        for dead in queue:
            for x, d in enumerate(table[dead]):
                if d is None:
                    continue
                table[d][x ^ 1] = None
                u, v = find(dead), find(d)
                if table[u][x] is not None:
                    merge(v, table[u][x], queue)
                elif table[v][x ^ 1] is not None:
                    merge(u, table[v][x ^ 1], queue)
                else:
                    table[u][x], table[v][x ^ 1] = v, u

    def scan_and_fill(c: int, w: List[int]) -> None:
        f, b, i, j = c, c, 0, len(w) - 1
        while True:
            while i <= j and table[f][w[i]] is not None:
                f, i = table[f][w[i]], i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][w[j] ^ 1] is not None:
                b, j = table[b][w[j] ^ 1], j - 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][w[i]], table[b][w[i] ^ 1] = b, f
                return
            define(f, w[i])

    c = 0
    while c < len(table):
        for w in words:
            if rep[c] != c:
                break
            scan_and_fill(c, w)
        if rep[c] == c:
            for x in range(2 * ngens):
                if table[c][x] is None:
                    define(c, x)
        c += 1
    number, queue, tree, right = {0: 0}, [0], [(-1, -1)], []
    for c in queue:  # grows while read: BFS order
        row = []
        for x in range(0, 2 * ngens, 2):
            d = find(table[c][x])
            if d not in number:
                number[d] = len(tree)
                queue.append(d)
                tree.append((number[c], x // 2))
            row.append(number[d])
        right.append(row)
    return tree, right, most
