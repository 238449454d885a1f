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
their meaning across precisions, and K is at most K_MAX.  W leaves room
for any sum of up to SUM_TERMS products plus two reduced terms, so one
integer multiply computes a truncated polynomial product with no carries
between slots, and one multiply-shift divides every slot by p at once
(Granlund-Montgomery division by an invariant integer).  A product, a
sum, a difference or a dot product of at most SUM_TERMS terms therefore
costs one big-int product per term plus O(1) big-int operations on K*W
bits, with no loop over the slots; p = 2 reduces with xor and a mask.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, List, Sequence

MIXED_CHAR = "zp"   # Z/p^K
EQUAL_CHAR = "fpx"  # F_p[X]/(X^K)

K_MAX = 64       # largest precision of an equal-characteristic ring
SUM_TERMS = 16   # most products summed before an equal-characteristic reduction


def _slot_width(p: int):
    """(W, s, m): slot width and the multiply-shift t -> (t * m) >> s = t // p.

    A slot of an unreduced sum holds less than 2^b, b = bitlen(SUM_TERMS *
    K_MAX * (p-1)^2 + 2p).  With s = b + ceil(log2 p) and m = ceil(2^s / p),
    (t * m) >> s equals t // p for every t < 2^b, and t * m < 2^W with
    W = b + bitlen(m), so the per-slot quotients never overlap.
    """
    b = (SUM_TERMS * K_MAX * (p - 1) ** 2 + 2 * p).bit_length()
    s = b + (p - 1).bit_length()
    m = -(-(1 << s) // p)
    return b + m.bit_length(), s, m


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


@dataclass(frozen=True)
class RingSpec:
    """A truncated local ring: mode, residue characteristic p, precision K."""

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
        # plain attributes, not fields: they stay out of __eq__ and __hash__
        setattr_ = object.__setattr__
        setattr_(self, "is_mixed", self.mode == MIXED_CHAR)
        if self.is_mixed:
            setattr_(self, "_modulus", self.p ** self.precision)
            return
        if self.precision > K_MAX:
            raise RingError(f"equal-characteristic precision must be <= {K_MAX}, "
                            f"got {self.precision}")
        w, s, m = _slot_width(self.p)
        slot_mask = (1 << w) - 1
        full = (1 << (w * self.precision)) - 1     # all bits of the first K slots
        low = full // slot_mask                    # 1 in each of the first K slots
        setattr_(self, "_w", w)
        setattr_(self, "_slot_mask", slot_mask)
        setattr_(self, "_low", low)
        setattr_(self, "_p_slots", self.p * low)   # p in each slot: x + P - y >= 0
        # (full, m, s, qmask): _reduce_acc's constants, qmask keeping the
        # quotient bits of each slot after the shift
        setattr_(self, "_reduction", (full, m, s, ((1 << (w - s)) - 1) * low))

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
        return cls(obj["mode"], int(obj["p"]), int(obj["precision"]))

    def with_precision(self, m: int) -> "RingSpec":
        return RingSpec(self.mode, self.p, m)

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
        return self._reduce_acc(x + y)

    def neg(self, x: int) -> int:
        if self.is_mixed:
            return (-x) % self._modulus
        if self.p == 2:
            return x
        return self._reduce_acc(self._p_slots - x)

    def sub(self, x: int, y: int) -> int:
        if self.is_mixed:
            return (x - y) % self._modulus
        if self.p == 2:
            return x ^ y
        return self._reduce_acc(x + self._p_slots - y)

    def mul(self, x: int, y: int) -> int:
        if self.is_mixed:
            return (x * y) % self._modulus
        if self.p == 2:
            return (x * y) & self._low
        return self._reduce_acc(x * y)

    def _reduce_acc(self, t: int) -> int:
        """Reduce an unreduced slot-packed sum mod p in every slot, truncated at K.

        t must be a sum of at most SUM_TERMS products of reduced elements
        plus at most two reduced elements (or P), so no slot has carried.
        """
        full, m, s, qmask = self._reduction
        t &= full
        return t - self.p * (((t * m) >> s) & qmask)

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
        return (x << (self._w * k)) & self._reduction[0]

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

    def reduce_raw(self, x: int, m: int) -> int:
        """Image of x in the precision-m quotient ring."""
        if m > self.precision:
            raise RingError("cannot reduce to higher precision")
        return self.low_part(x, m)

    # -- serialization, enumeration, sampling -------------------------------

    def encode(self, x: int) -> object:
        """JSON encoding: decimal string (mixed) or coefficient list (equal)."""
        if self.is_mixed:
            return str(x)
        return self.to_coeffs(x)

    def decode(self, obj: object) -> int:
        if self.is_mixed:
            if not isinstance(obj, str):
                raise RingError(f"mixed-characteristic scalar must be a string, got {obj!r}")
            v = int(obj)
            if not 0 <= v < self._modulus:
                raise RingError(f"scalar {v} out of canonical range")
            return v
        if not isinstance(obj, (list, tuple)):
            raise RingError(f"equal-characteristic scalar must be a list, got {obj!r}")
        if any(not 0 <= int(c) < self.p for c in obj):
            raise RingError("coefficient out of range")
        return self.from_coeffs([int(c) for c in obj])

    def size(self) -> int:
        return self.p ** self.precision

    def iter_all(self) -> Iterator[int]:
        if self.is_mixed:
            yield from range(self._modulus)
            return
        for digits in itertools.product(range(self.p), repeat=self.precision):
            yield self.from_coeffs(digits)

    def random_raw(self, rng) -> int:
        if self.is_mixed:
            return rng.randrange(self._modulus)
        return self.from_coeffs([rng.randrange(self.p) for _ in range(self.precision)])

    def random_unit(self, rng) -> int:
        while True:
            x = self.random_raw(rng)
            if self.is_unit(x):
                return x

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
    def one(cls, ring: RingSpec) -> "NormValue":
        return cls(ring.p, ring.precision, Fraction(0), False)

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

    def __mul__(self, other: "NormValue") -> "NormValue":
        self._check(other)
        if self.saturated or other.saturated:
            return NormValue(self.p, min(self.K, other.K), Fraction(min(self.K, other.K)), True)
        return NormValue(self.p, min(self.K, other.K), self.exponent + other.exponent,
                         self.exponent + other.exponent >= min(self.K, other.K))

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
