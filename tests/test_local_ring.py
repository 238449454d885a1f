import random

import pytest
from hypothesis import given, settings, strategies as st

from ultrastab.local_ring import (
    EQUAL_CHAR,
    K_MAX,
    MIXED_CHAR,
    SUM_TERMS,
    NonUnit,
    NormValue,
    RingError,
    RingSpec,
)
from ultrastab.ultranorm_linalg import UMatrix

from conftest import norm_power, random_raw, random_unit, schoolbook


def test_ring_validation():
    with pytest.raises(RingError):
        RingSpec(MIXED_CHAR, 4, 3)
    with pytest.raises(RingError):
        RingSpec(MIXED_CHAR, 3, 0)
    with pytest.raises(RingError):
        RingSpec("nope", 3, 2)


def test_mixed_add_examples():
    r = RingSpec(MIXED_CHAR, 3, 4)
    assert r.add(r.from_int(80), r.from_int(1)) == 0  # 81 = 3^4
    r2 = RingSpec(MIXED_CHAR, 2, 6)
    assert r2.mul(3, 43) == 1  # 129 = 2*64 + 1


def test_equal_char_freshman_dream():
    r = RingSpec(EQUAL_CHAR, 2, 3)
    x = r.from_coeffs([1, 1])
    assert r.to_coeffs(r.mul(x, x)) == [1, 0, 1]


def test_val_examples():
    r = RingSpec(MIXED_CHAR, 3, 6)
    assert r.val(63) == 2  # 63 = 9 * 7
    assert r.val(0) == 6
    r2 = RingSpec(EQUAL_CHAR, 2, 5)
    assert r2.val(r2.from_coeffs([0, 0, 0, 1, 1])) == 3


def test_inv_examples():
    r = RingSpec(MIXED_CHAR, 2, 6)
    assert r.inv(3) == 43
    assert r.inv(1) == 1
    r2 = RingSpec(MIXED_CHAR, 3, 2)
    with pytest.raises(NonUnit):
        r2.inv(3)


def test_equal_char_inverse():
    r = RingSpec(EQUAL_CHAR, 3, 5)
    rng = random.Random(1)
    for _ in range(100):
        x = random_unit(r, rng)
        assert r.mul(x, r.inv(x)) == r.one
        assert r.inv(r.inv(x)) == x


@pytest.mark.parametrize("mode,p,K", [(MIXED_CHAR, 2, 8), (MIXED_CHAR, 5, 4),
                                      (EQUAL_CHAR, 2, 8), (EQUAL_CHAR, 3, 5)])
def test_valuation_laws(mode, p, K):
    r = RingSpec(mode, p, K)
    rng = random.Random(2)
    for _ in range(300):
        x, y = random_raw(r, rng), random_raw(r, rng)
        vx, vy = r.val(x), r.val(y)
        vs = r.val(r.add(x, y))
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)
        assert r.val(r.mul(x, y)) == min(vx + vy, K)


def test_inv_antihomomorphism():
    r = RingSpec(EQUAL_CHAR, 2, 6)
    rng = random.Random(3)
    for _ in range(50):
        x, y = random_unit(r, rng), random_unit(r, rng)
        assert r.inv(r.mul(x, y)) == r.mul(r.inv(y), r.inv(x))


@pytest.mark.parametrize("mode", [MIXED_CHAR, EQUAL_CHAR])
def test_codec_roundtrip(mode):
    r = RingSpec(mode, 3, 4)
    rng = random.Random(4)
    for _ in range(100):
        x = random_raw(r, rng)
        assert r.decode(r.encode(x)) == x


def test_equal_char_decode_is_strict():
    # a coefficient is an int in [0, p), and there are at most K of them;
    # a shorter list is padded with zeros
    r = RingSpec(EQUAL_CHAR, 5, 4)
    assert r.decode([0, 1]) == r.from_coeffs([0, 1, 0, 0]) == r.omega_pow(1)
    assert r.decode([]) == 0
    for bad in ([1.5], [4.99], [True], ["3"], [0, 1, 2, 3, 4], [5], [-1]):
        with pytest.raises(RingError):
            r.decode(bad)


def test_mixed_char_decode_is_strict():
    # a scalar is exactly str(v) for some v in [0, p^K): int() would read
    # each of the bad spellings below as 43 (or 0)
    r = RingSpec(MIXED_CHAR, 2, 8)
    assert [r.decode(str(v)) for v in range(256)] == list(range(256))
    for bad in (" 43", "43 ", "+43", "4_3", "043", "00", "\u0664\u0663", "\uff14\uff13",
                "-1", "256", "", "4.3", "1" * 5000, 43, None, ["43"]):
        with pytest.raises(RingError):
            r.decode(bad)


def test_shift_updown():
    r = RingSpec(MIXED_CHAR, 2, 6)
    assert r.shift_up(3, 2) == 12
    assert r.shift_down(12, 2) == 3
    with pytest.raises(RingError):
        r.shift_down(6, 2)
    r2 = RingSpec(EQUAL_CHAR, 2, 4)
    x = r2.from_coeffs([0, 0, 1, 1])
    assert r2.to_coeffs(r2.shift_down(x, 2)) == [1, 1, 0, 0]


def test_reduce():
    r = RingSpec(MIXED_CHAR, 2, 6)
    assert r.row_reduce([43], 3) == [3]
    r2 = RingSpec(EQUAL_CHAR, 2, 6)
    x = r2.from_coeffs([1, 0, 1, 1, 0, 1])
    assert [r2.with_precision(3).to_coeffs(y) for y in r2.row_reduce([x], 3)] == [[1, 0, 1]]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_equal_char_shift_reduce_odd_p(p):
    # shifts and truncations must keep whole coefficient slots, not just bits
    r = RingSpec(EQUAL_CHAR, p, 6)
    rng = random.Random(17)
    for _ in range(200):
        x = random_raw(r, rng)
        y = random_raw(r, rng)
        k = rng.randrange(0, 6)
        assert r.shift_up(x, k) == r.mul(x, r.omega_pow(k))
        m = rng.randrange(1, 7)
        rm = r.with_precision(m)
        xm, ym, pm, sm = r.row_reduce([x, y, r.mul(x, y), r.add(x, y)], m)
        assert pm == rm.mul(xm, ym)
        assert sm == rm.add(xm, ym)


def test_norm_ordering():
    r = RingSpec(MIXED_CHAR, 2, 6)
    one = NormValue.from_valuation(r, 0)
    small = NormValue.from_valuation(r, 3)
    sat = NormValue.saturated_for(r)
    assert sat < small < one
    assert sat <= sat and sat == NormValue.from_valuation(r, 6)
    assert norm_power(small, 2).saturated


def test_scalar_interface():
    # ring elements are raw canonical ints operated on through their RingSpec
    r = RingSpec(MIXED_CHAR, 2, 6)
    a, b = 3, 43
    assert r.mul(a, b) == 1
    assert r.add(a, r.neg(a)) == r.zero
    assert r.inv(a) == 43
    assert r.val(a) == 0
    assert r.val(12) == 2


# -- differential tests against a plain reference ---------------------------
#
# The reference keeps a Z/p^K element as an int and an F_p[X]/(X^K) element
# as its list of K coefficients, lowest degree first, and computes with
# schoolbook loops.  p = 257 and 1021 with K up to 64 push the packed
# equal-characteristic slots to their largest sums.

PRIMES = (2, 3, 5, 257, 1021)


def _digits(p, K):
    # biased toward p - 1, the digit that makes slot sums largest
    return st.lists(st.one_of(st.just(p - 1), st.integers(0, p - 1)),
                    min_size=K, max_size=K)


def _rings(max_k=K_MAX):
    return st.builds(RingSpec, st.sampled_from([MIXED_CHAR, EQUAL_CHAR]),
                     st.sampled_from(PRIMES), st.integers(1, max_k))


@st.composite
def _ring_and_two_elements(draw):
    ring = draw(_rings())
    x, y = (_element(ring, draw(_digits(ring.p, ring.precision))) for _ in range(2))
    return ring, x, y


def _element(ring, digits):
    """(raw, reference) for the element with these base-p / X-adic digits."""
    if ring.is_mixed:
        v = sum(d * ring.p ** i for i, d in enumerate(digits))
        return v, v
    return ring.from_coeffs(digits), list(digits)


def _ref_mul(ring, a, b):
    if ring.is_mixed:
        return a * b % ring.modulus
    p, K = ring.p, ring.precision
    out = [0] * K
    for i, x in enumerate(a):
        if x:
            for j in range(K - i):
                out[i + j] += x * b[j]
    return [c % p for c in out]


def _ref_add(ring, a, b, sign=1):
    if ring.is_mixed:
        return (a + sign * b) % ring.modulus
    return [(x + sign * y) % ring.p for x, y in zip(a, b)]


def _ref_val(ring, a):
    K = ring.precision
    if ring.is_mixed:
        return next((v for v in range(K) if a % ring.p ** (v + 1)), K)
    return next((i for i, c in enumerate(a) if c), K)


def _ref_inv(ring, a):
    if ring.is_mixed:
        return pow(a, -1, ring.modulus)
    # triangular solve: each coefficient of the product past the first vanishes
    p, K = ring.p, ring.precision
    a0inv = pow(a[0], -1, p)
    b = [a0inv] + [0] * (K - 1)
    for d in range(1, K):
        b[d] = -a0inv * sum(a[i] * b[d - i] for i in range(1, d + 1)) % p
    return b


def _ref_truncate(ring, a, keep):
    """a mod w^keep, read at the precision of ring."""
    if ring.is_mixed:
        return a % ring.p ** keep
    return a[:keep] + [0] * (ring.precision - keep)


def _ref_digit(ring, a, j):
    return a // ring.p ** j % ring.p if ring.is_mixed else a[j]


def _ref_shift(ring, a, k):
    """a * w^k."""
    if ring.is_mixed:
        return a * ring.p ** k % ring.modulus
    return ([0] * k + a)[:ring.precision]


def _plain(ring, raw):
    """The reference form of a raw element, which must be canonical."""
    if ring.is_mixed:
        assert 0 <= raw < ring.modulus
        return raw
    coeffs = ring.to_coeffs(raw)
    assert raw == ring.from_coeffs(coeffs) and max(coeffs) < ring.p
    return coeffs


@settings(max_examples=200, deadline=None)
@given(_ring_and_two_elements(), st.data())
def test_ring_ops_match_reference(case, data):
    ring, (x, a), (y, b) = case
    K = ring.precision
    assert _plain(ring, ring.add(x, y)) == _ref_add(ring, a, b)
    assert _plain(ring, ring.sub(x, y)) == _ref_add(ring, a, b, -1)
    assert _plain(ring, ring.neg(x)) == _ref_add(ring, _plain(ring, 0), a, -1)
    assert _plain(ring, ring.mul(x, y)) == _ref_mul(ring, a, b)
    assert ring.val(x) == _ref_val(ring, a)
    if ring.val(x) == 0:
        assert _plain(ring, ring.inv(x)) == _ref_inv(ring, a)
    else:
        with pytest.raises(NonUnit):
            ring.inv(x)
    k = data.draw(st.integers(0, K))
    shifted = ring.shift_up(x, k)
    assert _plain(ring, shifted) == _ref_shift(ring, a, k)
    if k < K:
        assert _plain(ring, ring.shift_down(shifted, k)) == _ref_truncate(ring, a, K - k)
    m = data.draw(st.integers(1, K))
    (low,) = ring.row_reduce([x], m)
    assert _plain(ring.with_precision(m), low) == _ref_truncate(ring.with_precision(m), a, m)
    lifted = UMatrix(ring.with_precision(m), 1, ((low,),)).lift_to(ring)
    assert _plain(ring, lifted.rows[0][0]) == _ref_truncate(ring, a, m)
    assert _plain(ring, ring.low_part(x, m)) == _ref_truncate(ring, a, m)
    assert [ring.digit(x, j) for j in range(K)] == [_ref_digit(ring, a, j) for j in range(K)]
    assert ring.decode(ring.encode(x)) == x
    if not ring.is_mixed:
        assert ring.encode(x) == a


def _random_digits(rng, p, K):
    # half the digits p - 1, as in _digits, drawn by a seeded generator
    # because hypothesis draws are slow for vectors of long elements
    return [p - 1 if rng.random() < 0.5 else rng.randrange(p) for _ in range(K)]


@settings(max_examples=200, deadline=None)
@given(_rings(), st.integers(1, 40), st.integers(0, 2 ** 32))
def test_dot_matches_reference(ring, n, seed):
    # lengths 1-40 cross SUM_TERMS, where the packed sum is reduced
    rng = random.Random(seed)
    draw = lambda: _element(ring, _random_digits(rng, ring.p, ring.precision))
    xs, ys = zip(*[(draw(), draw()) for _ in range(n)])
    expect = _ref_mul(ring, xs[0][1], ys[0][1])
    for (_, a), (_, b) in zip(xs[1:], ys[1:]):
        expect = _ref_add(ring, expect, _ref_mul(ring, a, b))
    assert _plain(ring, ring.dot([x for x, _ in xs], [y for y, _ in ys])) == expect


def _ref_matmul(ring, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = _ref_mul(ring, a[i][0], b[0][j])
            for t in range(1, n):
                acc = _ref_add(ring, acc, _ref_mul(ring, a[i][t], b[t][j]))
            row.append(acc)
        out.append(row)
    return out


def _check_matmul(ring, a_digits, b_digits):
    a = [[_element(ring, d) for d in row] for row in a_digits]
    b = [[_element(ring, d) for d in row] for row in b_digits]
    n = len(a)
    ma = UMatrix(ring, n, tuple(tuple(x for x, _ in row) for row in a))
    mb = UMatrix(ring, n, tuple(tuple(x for x, _ in row) for row in b))
    got = [[_plain(ring, x) for x in row] for row in (ma @ mb).rows]
    assert got == _ref_matmul(ring, [[v for _, v in row] for row in a],
                              [[v for _, v in row] for row in b])


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(0, 2 ** 32))
def test_matmul_matches_reference(data, seed):
    # n up to 20 crosses SUM_TERMS; K shrinks with n to bound the reference's cost
    rng = random.Random(seed)
    n = data.draw(st.integers(1, 20))
    ring = data.draw(_rings(max_k=max(1, min(K_MAX, 2000 // (n * n)))))
    square = lambda: [[_random_digits(rng, ring.p, ring.precision) for _ in range(n)]
                      for _ in range(n)]
    _check_matmul(ring, square(), square())


@pytest.mark.parametrize("p,K,n", [(257, 20, 8), (1021, 32, 16)])
def test_large_p_products(p, K, n):
    # every entry of these products overflowed fixed 20-bit slots
    ring = RingSpec(EQUAL_CHAR, p, K)
    rng = random.Random(p)
    square = lambda: [[[rng.randrange(p) for _ in range(K)] for _ in range(n)]
                      for _ in range(n)]
    _check_matmul(ring, square(), square())


def _school_dot(ring, xs, ys):
    """Sum of products by conftest.schoolbook, term by term."""
    acc = 0
    for x, y in zip(xs, ys):
        acc = schoolbook(ring, acc, schoolbook(ring, x, y)[1])[0]
    return acc


@pytest.mark.parametrize("p", (2, 3, 5, 7, 257, 1021))
def test_largest_slot_sums(p):
    # every coefficient p - 1 at K = K_MAX fills a slot to its bound: the
    # dot product's second chunk adds SUM_TERMS such products to a reduced
    # term that is p - 1 in every slot, and RingSpec.row_submul adds (p - 1)^2 K
    # to p - 1; the kernel cuts its rows at SUM_TERMS products the same way
    ring = RingSpec(EQUAL_CHAR, p, K_MAX)
    top = ring.from_coeffs([p - 1] * K_MAX)
    ones = ring.from_coeffs([1] * K_MAX)       # -ones = top
    assert ring.mul(top, top) == schoolbook(ring, top, top)[1]
    xs = [top] + [0] * (SUM_TERMS - 1) + [top] * SUM_TERMS
    ys = [ring.one] + [0] * (SUM_TERMS - 1) + [top] * SUM_TERMS
    for n in (SUM_TERMS, 2 * SUM_TERMS):
        assert ring.dot(xs[-n:], ys[-n:]) == _school_dot(ring, xs[-n:], ys[-n:])
    minus = ring.from_int(p - 1)
    for f in (ones, top):
        neg_f = schoolbook(ring, minus, f)[1]
        assert ring.row_submul([top] * 3, f, [top] * 3) == \
            [schoolbook(ring, top, schoolbook(ring, neg_f, top)[1])[0]] * 3
    for n in (SUM_TERMS, SUM_TERMS + 1):
        m = UMatrix(ring, n, ((top,) * n,) * n)
        assert set((m @ m).rows) == {(_school_dot(ring, [top] * n, [top] * n),) * n}
    # every row xs against a right factor whose row i is ys[i] in every column
    n = 2 * SUM_TERMS
    a = UMatrix(ring, n, (tuple(xs),) * n)
    b = UMatrix(ring, n, tuple((y,) * n for y in ys))
    assert set((a @ b).rows) == {(_school_dot(ring, xs, ys),) * n}


def test_one_ring_object_per_mode_p_precision():
    for mode in (MIXED_CHAR, EQUAL_CHAR):
        ring = RingSpec.of(mode, 5, 8)
        assert ring.with_precision(3) is ring.with_precision(3) is RingSpec.of(mode, 5, 3)
        assert ring.with_precision(8) is ring
        assert RingSpec.from_json(ring.describe()) is ring
        assert RingSpec(mode, 5, 8) == ring           # built directly: equal
        assert UMatrix.identity(ring, 2).reduce(3).ring is ring.with_precision(3)


def test_equal_char_precision_cap():
    RingSpec(EQUAL_CHAR, 1021, K_MAX)
    with pytest.raises(RingError):
        RingSpec(EQUAL_CHAR, 2, K_MAX + 1)
    RingSpec(MIXED_CHAR, 2, K_MAX + 1)

