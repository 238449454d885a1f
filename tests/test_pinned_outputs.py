"""Pinned outputs of the repair engine.

SHA-256 digests of the repaired images and of the precision ledger for a
fixed-seed set of finite-image repairs (p prime to |C| and p dividing
|C|) and of BS(2,3) graph repairs.  A change that moves any output bit,
ledger level or step method fails here; a change meant to do so must say
so and re-pin.
"""

import hashlib
import random

import pytest

from ultrastab.certificates import canonical_json
from ultrastab.homrepair import GogEdge, GogVertex, GraphOfGroups, graph_repair, repair_finite_image
from ultrastab.local_ring import RingSpec
from ultrastab.presentations import ApproxRep, Presentation
from ultrastab.ultranorm_linalg import UMatrix

from conftest import shifted_random


def _perm(images):
    rows = [[0] * len(images) for _ in images]
    for j, i in enumerate(images):
        rows[i][j] = 1
    return rows


S3_PERMS = (_perm([1, 0, 2]), _perm([1, 2, 0]))
S3_RELATORS = [["s", "s"], ["t", "t", "t"], ["s", "t", "s", "t"]]
# s -> (j -> j + 1), t -> (j -> 4j) on Z/5, so that t s^3 t^-1 = s^2
BS23_PERMS = (_perm([(j + 1) % 5 for j in range(5)]), _perm([(4 * j) % 5 for j in range(5)]))


def _perturbed(pres, ring, perms, k, seed):
    rng = random.Random(seed)
    n = len(perms[0])
    return ApproxRep(pres, ring, n, [UMatrix.from_int_rows(ring, m)
                                     + shifted_random(ring, n, rng, k) for m in perms])


def _finite_image(mode, p, K, k, seed):
    pres = Presentation.make(["s", "t"], S3_RELATORS)
    return repair_finite_image, (_perturbed(pres, RingSpec(mode, p, K), S3_PERMS, k, seed),)


def _bs23(p, k, seed):
    gog = GraphOfGroups(
        vertices=(GogVertex("v", ("s",), ()),),
        edges=(GogEdge("v", "v", ("s", "s", "s"), ("s", "s"), "t", False),),
    )
    rep = _perturbed(gog.standard_presentation(), RingSpec("zp", p, 8), BS23_PERMS, k, seed)
    return graph_repair, (gog, rep)


CASES = {   # id -> (repair and its arguments, SHA-256 of images and ledger)
    "S3/zp/p5/K8/k3": (_finite_image("zp", 5, 8, 3, 1),
        "c92b35155305d18fb7e9164ee765d981665ff16cbf13a71d5ab884c8433b3ad5"),
    "S3/zp/p7/K12/k4": (_finite_image("zp", 7, 12, 4, 2),
        "fb7374017ee0f3cdc9a737cc446b4f12535c2ee12a2eff3927b63093593ab4b4"),
    "S3/fpx/p5/K8/k3": (_finite_image("fpx", 5, 8, 3, 3),
        "cc8052d2771468ece044b156039b9a00adfa57eec93190be019606b2e173fd0a"),
    "S3/zp/p2/K8/k3": (_finite_image("zp", 2, 8, 3, 4),
        "f3b9aa40cf88bfcdcb943c22f493a07f8505513e166380f0ec7952c6e6e84cee"),
    "S3/zp/p3/K12/k4": (_finite_image("zp", 3, 12, 4, 5),
        "6d873f7a94ddbe51a01d672aea7adfbe259f836f09c0c941df12c6f4c5de654a"),
    "BS23/zp/p2/K8/k3": (_bs23(2, 3, 6),
        "3b5f14db9d66b96fb85720a54ef5b57ebaab478bd3c9360a9317b207a45cbb77"),
    "BS23/zp/p3/K8/k4": (_bs23(3, 4, 7),
        "e28c996758fd6cd2811a871ea5984ee0e32284eb9d86602ba32280393eef82d6"),
}


def _digest(fn, args):
    fixed, ledger = fn(*args)
    assert ledger.steps and fixed.defect().saturated
    return hashlib.sha256(canonical_json(
        {"images": fixed.to_json(), "ledger": ledger.to_json()}).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_output_digest(case):
    (fn, args), expected = CASES[case]
    assert _digest(fn, args) == expected
