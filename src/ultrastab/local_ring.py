"""Exact arithmetic in a truncated local ring o/w^K.

Two ring modes share one interface: Z/p^K (residues of the p-adic
integers, uniformizer p) and F_p[X]/(X^K) (truncated power series over
the prime field, uniformizer X).  Elements are stored in a canonical raw
form so equality is plain integer equality, and every operation is exact
at the working precision K.  The valuation val(x) lies in {0, ..., K}
with val(x) = K exactly when x is zero at this precision.

Equal characteristic packs the K coefficients of an element into one
integer, coefficient i in the W-bit slot at bit W*i (Kronecker
substitution).  The slot width W depends on p alone, so raw values keep
their meaning across precisions, and K is at most K_MAX.  A slot holds
any sum of up to SUM_TERMS products plus two reduced terms, b bits, so
one integer multiply computes a truncated polynomial product with no
carries between slots.  At p = 2 a mask reduces every slot at once and
W = b (11 bits).  For odd p one multiply-shift divides every slot by p
(Granlund-Montgomery division by an invariant integer); it runs on the
even and the odd slots apart, so each slot's product with the multiplier
may spill into the next slot but never reaches the next slot of its
parity, and W = b + 1 (14 bits at p = 3, 16 at p = 5, 31 at p = 1021).
A product or a dot product of at most SUM_TERMS terms therefore costs
one big-int product per term plus O(1) big-int operations on K*W bits,
with no loop over the slots; a sum or difference, whose slots stay below
2p, takes one conditional subtraction of p in every slot.

The row operations (row_add, ..., min_val_diff) do a matrix's entrywise
arithmetic one row per call, with the mode read once per row.  Outside
this module three places read the raw format: the product kernel of
ultranorm_linalg packs rows and reduces their products with the ring's
slot constants; homrepair's _conj_block and _combine reduce Z/p^K
products and sums by ring.modulus; and char2_involutions._digit_inverse
ORs powers of X into the slots of F_2[X]/(X^K) entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul, or_, sub, xor
from typing import Iterator, List, Optional, Sequence

MIXED_CHAR = "zp"   # Z/p^K
EQUAL_CHAR = "fpx"  # F_p[X]/(X^K)

K_MAX = 64       # largest precision of an equal-characteristic ring
SUM_TERMS = 16   # most products summed before an equal-characteristic reduction


def _slot_width(p: int):
    """(W, s, m): slot width and the multiply-shift t -> (t * m) >> s = t // p.

    A slot of an unreduced sum holds less than 2^b, b = bitlen(SUM_TERMS *
    K_MAX * (p-1)^2 + 2p).  At p = 2 the reduction is a mask: W = b and no
    multiply-shift (s = m = 0).  For odd p, s = b + bitlen(p - 1) and m =
    ceil(2^s / p) make (t * m) >> s equal t // p for every t < 2^b, and
    t * m < 2^(b + bitlen(m)) <= 2^(2W) with W = ceil((b + bitlen(m)) / 2),
    so a slot's product never reaches the next slot of its parity.
    """
    b = (SUM_TERMS * K_MAX * (p - 1) ** 2 + 2 * p).bit_length()
    if p == 2:
        return b, 0, 0
    s = b + (p - 1).bit_length()
    m = -(-(1 << s) // p)
    return -(-(b + m.bit_length()) // 2), s, m


class RingError(ValueError):
    pass


class RingMismatch(RingError):
    pass


class NonUnit(RingError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


_RINGS: dict = {}  # (mode, p, K) -> the first RingSpec made with these fields


@dataclass(frozen=True)
class RingSpec:
    """A truncated local ring: mode, residue characteristic p, precision K.

    RingSpec.of, with_precision and from_json return one ring object per
    (mode, p, K), the first one made; a ring built directly is equal to it.
    """

    mode: str
    p: int
    precision: int

    def __post_init__(self):
        if self.mode not in (MIXED_CHAR, EQUAL_CHAR):
            raise RingError(f"unknown ring mode {self.mode!r}")
        if not _is_prime(self.p):
            raise RingError(f"p must be prime, got {self.p}")
        if self.precision < 1:
            raise RingError(f"precision must be >= 1, got {self.precision}")
        if self.mode == EQUAL_CHAR and self.precision > K_MAX:
            raise RingError(f"equal-characteristic precision must be <= {K_MAX}, "
                            f"got {self.precision}")
        # plain attributes, not fields: they stay out of __eq__ and __hash__
        setattr_ = object.__setattr__
        setattr_(self, "_interned", _RINGS.setdefault((self.mode, self.p, self.precision), self))
        setattr_(self, "is_mixed", self.mode == MIXED_CHAR)
        if self.is_mixed:
            setattr_(self, "_modulus", self.p ** self.precision)
            return
        p, K = self.p, self.precision
        w, s, m = _slot_width(p)
        slot_mask = (1 << w) - 1
        full = (1 << (w * K)) - 1                   # all bits of the first K slots
        low = full // slot_mask                     # 1 in each of the first K slots
        setattr_(self, "_w", w)
        setattr_(self, "_slot_mask", slot_mask)
        setattr_(self, "_full", full)
        setattr_(self, "_low", low)
        if p == 2:
            return                                  # keeping bit 0 of each slot reduces
        setattr_(self, "_p_slots", p * low)         # p in each slot: x + P - y >= 0
        # add, sub and neg: a slot below 2p reaches bit c after adding
        # 2^c - p exactly when it is >= p
        c = (2 * p - 1).bit_length()
        setattr_(self, "_small_reduction", (c, ((1 << c) - p) * low))
        # _reduce_acc: the even slots, and the quotient bits of the even
        # slots and of the odd slots
        pairs = (K + 1) // 2
        even = slot_mask * (((1 << (2 * w * pairs)) - 1) // ((1 << (2 * w)) - 1))
        qmask = ((1 << (m.bit_length() - (p - 1).bit_length())) - 1) * low
        setattr_(self, "_reduction", (full, even, m, s, qmask & even, qmask & ~even))

    @classmethod
    def of(cls, mode: str, p: int, precision: int) -> "RingSpec":
        """The one ring object of (mode, p, precision)."""
        return _RINGS.get((mode, p, precision)) or cls(mode, p, precision)

    # -- basic structure ------------------------------------------------

    @property
    def modulus(self) -> int:
        if not self.is_mixed:
            raise RingError("modulus only defined in mixed characteristic")
        return self._modulus

    def describe(self) -> dict:
        return {"mode": self.mode, "p": self.p, "precision": self.precision}

    @classmethod
    def from_json(cls, obj: dict) -> "RingSpec":
        return cls.of(obj["mode"], int(obj["p"]), int(obj["precision"]))

    def with_precision(self, m: int) -> "RingSpec":
        return RingSpec.of(self.mode, self.p, m)

    # -- raw element constructors ----------------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, v: int) -> int:
        """Canonical image of an integer (constant, in equal characteristic)."""
        if self.is_mixed:
            return v % self._modulus
        return v % self.p

    def from_coeffs(self, coeffs: Sequence[int]) -> int:
        """Element from power-series coefficients, lowest degree first."""
        if self.is_mixed:
            raise RingError("coefficient form only in equal characteristic")
        raw = 0
        for i, c in enumerate(coeffs[: self.precision]):
            raw |= (c % self.p) << (self._w * i)
        return raw

    def to_coeffs(self, x: int) -> List[int]:
        if self.is_mixed:
            raise RingError("coefficient form only in equal characteristic")
        w, mask = self._w, self._slot_mask
        return [(x >> (w * i)) & mask for i in range(self.precision)]

    def digit(self, x: int, j: int) -> int:
        """Coefficient of w^j in x: its base-p digit j, or its X^j coefficient."""
        if self.is_mixed:
            return x // self.p ** j % self.p
        return (x >> (self._w * j)) & self._slot_mask

    def uniformizer(self) -> int:
        return self.p if self.is_mixed else 1 << self._w

    def omega_pow(self, k: int) -> int:
        """Raw value of w^k; zero when k >= K."""
        if k >= self.precision:
            return 0
        return self.p ** k if self.is_mixed else 1 << (self._w * k)

    # -- arithmetic ------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.is_mixed:
            return (x + y) % self._modulus
        if self.p == 2:
            return x ^ y
        return self._reduce_small(x + y)

    def neg(self, x: int) -> int:
        if self.is_mixed:
            return (-x) % self._modulus
        if self.p == 2:
            return x
        return self._reduce_small(self._p_slots - x)

    def sub(self, x: int, y: int) -> int:
        if self.is_mixed:
            return (x - y) % self._modulus
        if self.p == 2:
            return x ^ y
        return self._reduce_small(x + self._p_slots - y)

    def mul(self, x: int, y: int) -> int:
        if self.is_mixed:
            return (x * y) % self._modulus
        if self.p == 2:
            return (x * y) & self._low
        return self._reduce_acc(x * y)

    def _reduce_small(self, t: int) -> int:
        """Subtract p from every slot of t that is >= p; slots must be < 2p."""
        c, lift = self._small_reduction
        return t - self.p * (((t + lift) >> c) & self._low)

    def _reduce_acc(self, t: int) -> int:
        """Reduce an unreduced slot-packed sum mod p in every slot, truncated at K.

        t must be a sum of at most SUM_TERMS products of reduced elements
        plus at most two reduced elements (or P), so no slot has carried.
        """
        if self.p == 2:
            return t & self._low
        full, even, m, s, qeven, qodd = self._reduction
        t &= full
        e = t & even
        return t - self.p * ((((e * m) >> s) & qeven) | ((((t ^ e) * m) >> s) & qodd))

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """Exact sum of products; the workhorse of matrix multiplication."""
        if self.is_mixed:
            return sum(map(mul, xs, ys)) % self._modulus
        t = 0
        for i in range(0, len(xs), SUM_TERMS):
            t = self._reduce_acc(
                t + sum(map(mul, xs[i:i + SUM_TERMS], ys[i:i + SUM_TERMS])))
        return t

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        if self.is_mixed:
            return pow(x, e, self._modulus)
        result = self.one
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- valuation and units ----------------------------------------------

    def val(self, x: int) -> int:
        """Largest v <= K with w^v dividing x; val(0) = K."""
        if x == 0:
            return self.precision
        if self.is_mixed:
            v = 0
            p = self.p
            while x % p == 0:
                x //= p
                v += 1
            return v
        return ((x & -x).bit_length() - 1) // self._w

    def is_unit(self, x: int) -> bool:
        return self.val(x) == 0

    def inv(self, x: int) -> int:
        if not self.is_unit(x):
            raise NonUnit(f"cannot invert element of valuation {self.val(x)}")
        if self.is_mixed:
            return pow(x, -1, self._modulus)
        # Newton iteration: if x b = 1 mod X^k then b (2 - x b) inverts x
        # mod X^2k, starting from the inverse of the constant coefficient.
        b = pow(x & self._slot_mask, -1, self.p)
        two = self.from_int(2)
        k = 1
        while k < self.precision:
            b = self.mul(b, self.sub(two, self.mul(x, b)))
            k *= 2
        return b

    # -- precision shifts ---------------------------------------------------

    def shift_up(self, x: int, k: int) -> int:
        """Multiply by w^k."""
        if k == 0:
            return x
        if k >= self.precision:
            return 0
        if self.is_mixed:
            return (x * self.p ** k) % self._modulus
        return (x << (self._w * k)) & self._full

    def shift_down(self, x: int, k: int) -> int:
        """Exact division by w^k; requires val(x) >= k."""
        if k == 0:
            return x
        if self.val(x) < k:
            raise RingError("element not divisible by w^k")
        if self.is_mixed:
            return x // self.p ** k
        return x >> (self._w * k)

    def low_part(self, x: int, keep: int) -> int:
        """x mod w^keep: the terms of x below w^keep."""
        if self.is_mixed:
            return x % (self.p ** keep)
        return x & ((1 << (self._w * keep)) - 1)

    # -- row operations -------------------------------------------------------
    #
    # Entrywise arithmetic on a row of raw elements, equal entry by entry to
    # the scalar operations above, in one call: the mode is read once per
    # row and each entry costs a few integer operations and no method call.
    # A row is any sequence; the result is a list.

    def row_add(self, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        if self.is_mixed:
            M = self._modulus
            return [(x + y) % M for x, y in zip(xs, ys)]
        if self.p == 2:
            return list(map(xor, xs, ys))
        c, lift = self._small_reduction
        p, low = self.p, self._low
        return [t - p * (((t + lift) >> c) & low) for t in map(add, xs, ys)]

    def row_sub(self, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        if self.is_mixed:
            M = self._modulus
            return [(x - y) % M for x, y in zip(xs, ys)]
        if self.p == 2:
            return list(map(xor, xs, ys))
        c, lift = self._small_reduction
        p, low, P = self.p, self._low, self._p_slots
        lift += P
        return [t + P - p * (((t + lift) >> c) & low) for t in map(sub, xs, ys)]

    def row_neg(self, xs: Sequence[int]) -> List[int]:
        if self.is_mixed:
            M = self._modulus
            return [-x % M for x in xs]
        if self.p == 2:
            return list(xs)
        c, lift = self._small_reduction
        p, low, P = self.p, self._low, self._p_slots
        lift += P
        return [P - x - p * (((lift - x) >> c) & low) for x in xs]

    def row_scale(self, a: int, xs: Sequence[int]) -> List[int]:
        """a x per entry x."""
        if self.is_mixed:
            M = self._modulus
            return [a * x % M for x in xs]
        if self.p == 2:
            low = self._low
            return [a * x & low for x in xs]
        p = self.p
        full, even, m, s, qeven, qodd = self._reduction
        out = []
        for x in xs:  # one _reduce_acc(a x) per entry, inlined
            t = a * x & full
            e = t & even
            out.append(t - p * ((((e * m) >> s) & qeven) | ((((t ^ e) * m) >> s) & qodd)))
        return out

    def row_submul(self, xs: Sequence[int], f: int, ys: Sequence[int]) -> List[int]:
        """x - f y per entry: the row operation of an elimination."""
        if self.is_mixed:
            M = self._modulus
            return [(x - f * y) % M for x, y in zip(xs, ys)]
        if self.p == 2:
            low = self._low
            return [(x + f * y) & low for x, y in zip(xs, ys)]
        p, g = self.p, self.neg(f)
        full, even, m, s, qeven, qodd = self._reduction
        out = []
        for x, y in zip(xs, ys):  # one _reduce_acc(x + (-f) y) per entry, inlined
            t = (x + g * y) & full
            e = t & even
            out.append(t - p * ((((e * m) >> s) & qeven) | ((((t ^ e) * m) >> s) & qodd)))
        return out

    def row_reduce(self, xs: Sequence[int], m: int) -> List[int]:
        """The row in the precision-m quotient ring: low_part(x, m) per entry."""
        if m > self.precision:
            raise RingError("cannot reduce to higher precision")
        if self.is_mixed:
            q = self.p ** m
            return [x % q for x in xs]
        mask = (1 << (self._w * m)) - 1
        return [x & mask for x in xs]

    def row_lift(self, xs: Sequence[int], k: int, i: int) -> List[int]:
        """Row i of I + w^k X, from row i of X: w^k x per entry, plus 1 at entry i."""
        K = self.precision
        if k == 0:
            out = list(xs)
            out[i] = self.add(out[i], 1)
            return out
        if k >= K:
            out = [0] * len(xs)
        elif self.is_mixed:
            M, q = self._modulus, self.p ** k
            out = [x * q % M for x in xs]
        else:
            s, full = self._w * k, self._full
            out = [(x << s) & full for x in xs]
        out[i] += 1  # w^k x has no constant term, so adding 1 carries nowhere
        return out

    def row_coords(self, xs: Sequence[int], ys: Sequence[int], j: int, m: int) -> List[int]:
        """coords_j(x - y) mod w^m per entry, for 0 <= j <= K: low_part(shift_down(
        sub(x, y), j), m).  Raises RingError, as shift_down does, when w^j does
        not divide some x - y."""
        K = self.precision
        keep = min(m, K - j)  # shift_down leaves K - j digits
        if self.is_mixed:
            ds = list(map(sub, xs, ys))
            # p^j divides d exactly when it divides gcd(p^j, d_1, ...)
            P = self.p ** j
            if math.gcd(P, *ds) != P:
                raise RingError("element not divisible by w^k")
            PQ = P * self.p ** keep
            return [d % PQ // P for d in ds]
        ds = self.row_sub(xs, ys)
        s = self._w * j
        if reduce(or_, ds, 0) & ((1 << s) - 1):  # a digit below w^j
            raise RingError("element not divisible by w^k")
        mask = (1 << (self._w * keep)) - 1
        return [(d >> s) & mask for d in ds]

    def min_val(self, rows: Sequence[Sequence[int]]) -> int:
        """Least valuation of the entries of a matrix, given by its rows; K if none.

        Z/p^K: gcd(p^K, a_1, ...) = p^min(K, min val), one gcd per row.
        F_p[X]/(X^K): the slots are canonical digits, so the least valuation
        is the lowest set bit of the entries' OR over the slot width.
        """
        if self.is_mixed:
            g = self._modulus
            for r in rows:
                g = math.gcd(g, *r)
                if g == 1:
                    return 0
            return self.val(g)  # g = p^v, and val(p^K) = K
        t = 0
        for r in rows:
            t = reduce(or_, r, t)
        return self.val(t)  # the lowest set bit of t is the least entry's

    def min_val_diff(self, rows: Sequence[Sequence[int]],
                     others: Optional[Sequence[Sequence[int]]] = None) -> int:
        """min_val of rows - others, others the identity when None; forms neither.

        A difference is read without its reduction: gcd(p^K, x - y) in
        Z/p^K, and in F_p[X]/(X^K) x XOR y, whose lowest set bit lies in the
        lowest slot where x and y differ.
        """
        if self.is_mixed:
            g = self._modulus
            if others is None:
                for i, r in enumerate(rows):
                    g = math.gcd(g, *r[:i], r[i] - 1, *r[i + 1:])
                    if g == 1:
                        return 0
            else:
                for r, q in zip(rows, others):
                    g = math.gcd(g, *map(sub, r, q))
                    if g == 1:
                        return 0
            return self.val(g)  # g = p^v, and val(p^K) = K
        t = 0
        if others is None:
            for i, r in enumerate(rows):
                t = reduce(or_, r[i + 1:], reduce(or_, r[:i], t | (r[i] ^ 1)))
        else:
            for r, q in zip(rows, others):
                t = reduce(or_, map(xor, r, q), t)
        return self.val(t)  # the lowest set bit of t is the least difference's

    # -- serialization and enumeration ---------------------------------------

    def encode(self, x: int) -> object:
        """JSON encoding: decimal string (mixed) or coefficient list (equal)."""
        if self.is_mixed:
            return str(x)
        return self.to_coeffs(x)

    def decode(self, obj: object) -> int:
        if self.is_mixed:
            # only the writer's spelling str(v): int() also reads " 43", "+43",
            # "4_3", "043" and other scripts' digits as 43
            if (isinstance(obj, str) and obj.isascii() and obj.isdigit()
                    and (obj[0] != "0" or obj == "0")):
                try:
                    v = int(obj)
                except ValueError:  # more digits than int() reads
                    v = self._modulus
                if v < self._modulus:
                    return v
            raise RingError(f"scalar {obj!r} is not a decimal string of an integer "
                            f"in [0, {self.p}^{self.precision})")
        if not isinstance(obj, (list, tuple)):
            raise RingError(f"equal-characteristic scalar must be a list, got {obj!r}")
        if len(obj) > self.precision:
            raise RingError(f"{len(obj)} coefficients, more than the precision {self.precision}")
        p, w, raw = self.p, self._w, 0
        for i, c in enumerate(obj):
            # type, not isinstance: True is an int but not a coefficient
            if type(c) is not int or not 0 <= c < p:
                raise RingError(f"coefficient {c!r} is not an integer in [0, {p})")
            raw |= c << (w * i)
        return raw

    def size(self) -> int:
        return self.p ** self.precision

    def iter_all(self) -> Iterator[int]:
        if self.is_mixed:
            yield from range(self._modulus)
            return
        for digits in itertools.product(range(self.p), repeat=self.precision):
            yield self.from_coeffs(digits)

    def norm(self, x: int) -> "NormValue":
        return NormValue.from_valuation(self, self.val(x))


@dataclass(frozen=True)
class NormValue:
    """An ultrametric norm p^{-exponent}, possibly saturated at precision K.

    Saturated means "<= p^{-K}, indistinguishable from 0 at this precision";
    saturated values compare below every unsaturated value with exponent < K.
    Exponents are integers for scalar/matrix norms; rationals occur only in
    cyclotomic lower-bound certificates.
    """

    p: int
    K: int
    exponent: Fraction
    saturated: bool = False

    @classmethod
    def from_valuation(cls, ring: RingSpec, v) -> "NormValue":
        v = Fraction(v)
        if v >= ring.precision:
            return cls(ring.p, ring.precision, Fraction(ring.precision), True)
        return cls(ring.p, ring.precision, v, False)

    @classmethod
    def saturated_for(cls, ring: RingSpec) -> "NormValue":
        return cls(ring.p, ring.precision, Fraction(ring.precision), True)

    def _key(self):
        return math.inf if self.saturated else self.exponent

    def _check(self, other: "NormValue") -> None:
        if self.p != other.p:
            raise RingMismatch("norms over different residue characteristics")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NormValue):
            return NotImplemented
        self._check(other)
        return self._key() == other._key()

    def __hash__(self):
        return hash((self.p, self._key()))

    # Ordering is by the real value p^{-exponent}: larger exponent = smaller norm.
    def __lt__(self, other: "NormValue") -> bool:
        self._check(other)
        return self._key() > other._key()

    def __le__(self, other: "NormValue") -> bool:
        self._check(other)
        return self._key() >= other._key()

    def __gt__(self, other: "NormValue") -> bool:
        self._check(other)
        return self._key() < other._key()

    def __ge__(self, other: "NormValue") -> bool:
        self._check(other)
        return self._key() <= other._key()

    @property
    def valuation(self) -> int:
        """Integer valuation, with K standing in for saturated."""
        if self.saturated:
            return self.K
        if self.exponent.denominator != 1:
            raise RingError("norm has a fractional exponent")
        return int(self.exponent)

    def encode(self) -> object:
        if self.saturated:
            return {"saturated": True, "precision": self.K}
        e = self.exponent
        return {"exponent": [e.numerator, e.denominator] if e.denominator != 1 else e.numerator}

    def __repr__(self) -> str:
        if self.saturated:
            return f"NormValue(<= {self.p}^-{self.K}, saturated)"
        return f"NormValue({self.p}^-{self.exponent})"


def norm_max(values, ring: RingSpec) -> NormValue:
    """Largest norm in an iterable; saturated when the iterable is empty."""
    best = None
    for v in values:
        if best is None or v > best:
            best = v
    if best is None:
        return NormValue.saturated_for(ring)
    return best
