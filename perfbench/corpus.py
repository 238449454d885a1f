"""Seeded inputs for the three workloads.

Every input is built with the plain-Python reference arithmetic and
handed to the package only as a JSON object in its own file format, so
the package never helps to make the data that judges it.  The shapes
(group, ring, p, K, defect level) are fixed per workload; the seed draws
the perturbations, the conjugators and the witness parameters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from reference import Ring, defect_val, identity, matmul, matsub, matval, rep_json

S3_RELATORS = [["s", "s"], ["t", "t", "t"], ["s", "t", "s", "t"]]


def _s3_regular():
    elems = list(itertools.permutations(range(3)))
    index = {e: i for i, e in enumerate(elems)}

    def left(g):
        return [index[tuple(g[e[i]] for i in range(3))] for e in elems]
    return [left((1, 0, 2)), left((1, 2, 0))]


# name -> (generators, relators, generator permutations, group order)
GROUPS = {
    "S3": (["s", "t"], S3_RELATORS, [[1, 0, 2], [1, 2, 0]], 6),
    "S3reg": (["s", "t"], S3_RELATORS, _s3_regular(), 6),
    "S4": (["s", "t"], [["s", "s"], ["t"] * 4, ["s", "t"] * 3],
           [[1, 0, 2, 3], [1, 2, 3, 0]], 24),
    "D4": (["r", "s"], [["r"] * 4, ["s", "s"], ["s", "r", "s", "r"]],
           [[1, 2, 3, 0], [0, 3, 2, 1]], 8),
}

BS23_GOG = {
    "schema_version": 1,
    "kind": "graph_of_groups",
    "vertices": [{"name": "v", "generators": ["s"], "relators": []}],
    "edges": [{"source": "v", "target": "v", "word_source": ["s", "s", "s"],
               "word_target": ["s", "s"], "letter": "t", "in_tree": False}],
}
BS23_RELATORS = [["t", "s", "s", "s", "t^-1", "s^-1", "s^-1"]]


@dataclass
class Op:
    """One benchmark operation: a label for its shape and what it needs."""

    kind: str            # repair | cli-repair | cli-witness | cli-bad
    shape: str           # e.g. "S4/fpx/p5/K12"; ops of one shape cost alike
    rep: Optional[dict] = None
    p_part: int = 0      # l in the bound dist <= p^l * defect
    mode: str = ""       # cli repair mode
    gog: Optional[dict] = None
    argv: List[str] = field(default_factory=list)   # cli witness arguments
    expect: dict = field(default_factory=dict)      # reference facts to check


def _p_part(order: int, p: int) -> int:
    l = 0
    while order % p == 0:
        order //= p
        l += 1
    return l


def _perm(R: Ring, images):
    n = len(images)
    rows = [[R.zero] * n for _ in range(n)]
    for j, i in enumerate(images):
        rows[i][j] = R.one
    return rows


def _noise(R: Ring, n: int, k: int, rng):
    return [[R.shift(R.random(rng), k) for _ in range(n)] for _ in range(n)]


def _add(R: Ring, a, b):
    return [[R.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def repair_op(group: str, mode: str, p: int, K: int, k: int, rng, kind="repair") -> Op:
    """A permutation representation plus noise of valuation >= k, not exact."""
    R = Ring(mode, p, K)
    gens, rels, perms, order = GROUPS[group]
    n = len(perms[0])
    while True:
        images = [_add(R, _perm(R, g), _noise(R, n, k, rng)) for g in perms]
        if defect_val(R, gens, rels, images) < K:
            return Op(kind, f"{group}/{mode}/p{p}/K{K}", rep=rep_json(R, gens, rels, images),
                      p_part=_p_part(order, p), mode="finite-image")


def bs23_op(p: int, k: int, rng) -> Op:
    R = Ring("zp", p, 8)
    P = _perm(R, [(j + 1) % 5 for j in range(5)])
    Q = _perm(R, [(4 * j) % 5 for j in range(5)])
    images = [_add(R, P, _noise(R, 5, k, rng)), _add(R, Q, _noise(R, 5, k, rng))]
    rep = rep_json(R, ["s", "t"], BS23_RELATORS, images)
    # t has order 2 in the image, which costs one level at p = 2.
    return Op("cli-repair", f"BS23/zp/p{p}/K8", rep=rep, p_part=1 if p == 2 else 0,
              mode="graph", gog=BS23_GOG)


def _conjugate(R: Ring, m, rng, count: int):
    """m conjugated by `count` random transvections I + c e_ij, in place."""
    n = len(m)
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        c = R.random(rng)
        m[i] = [R.add(x, R.mul(c, y)) for x, y in zip(m[i], m[j])]   # E m
        for row in m:                                                # (E m) E^-1
            row[j] = R.sub(row[j], R.mul(c, row[i]))
    return m


def involution_op(n: int, rng, K: int = 10) -> Op:
    """A perturbed conjugate of a block swap over F_2[X]/(X^K)."""
    R = Ring("fpx", 2, K)
    while True:
        half = rng.randrange(0, n // 2 + 1)
        swap = identity(R, n)
        for i in range(half):
            swap[i][i] = swap[half + i][half + i] = R.zero
            swap[i][half + i] = swap[half + i][i] = R.one
        a = _add(R, _conjugate(R, swap, rng, 2 * n), _noise(R, n, rng.randrange(1, K), rng))
        d = matval(R, matsub(R, matmul(R, a, a), identity(R, n)))
        if 1 <= d < K:
            return Op("cli-repair", f"involution/fpx/p2/n{n}",
                      rep=rep_json(R, ["s"], [["s", "s"]], [a]), mode="involution")


def bad_defect_op(rng) -> Op:
    """S3 over Z/5^8 with t sent to a transposition: t^3 fails mod p."""
    R = Ring("zp", 5, 8)
    images = [_add(R, _perm(R, g), _noise(R, 3, 3, rng)) for g in ([1, 0, 2], [0, 2, 1])]
    return Op("cli-bad", "bad/defect>=1", rep=rep_json(R, ["s", "t"], S3_RELATORS, images),
              mode="finite-image")


def bad_level_op(p: int, rng) -> Op:
    """S3 over Z/p^8, p | 6, at defect level 2 = 2l: the hypothesis k > 2l fails."""
    R = Ring("zp", p, 8)
    while True:
        images = [_add(R, _perm(R, g), _noise(R, 3, 2, rng)) for g in GROUPS["S3"][2]]
        if defect_val(R, ["s", "t"], S3_RELATORS, images) == 2:
            return Op("cli-bad", f"bad/k<=2l/p{p}",
                      rep=rep_json(R, ["s", "t"], S3_RELATORS, images), mode="finite-image")


def badestimate_op(rng) -> Op:
    """Cyclic bad-estimate witness over Z/3^12 (larger p^K exceeds the enum cap)."""
    i = rng.randrange(1, 5)
    x = 3 * rng.choice([1, 2, 4, 5, 7, 8])
    argv = ["witness", "--kind", "badestimate", "--ring", "zp", "--p", "3",
            "--precision", "12", "--i", str(i), "--x", f'"{x}"']
    # Lifting the exponent: val((1 + x)^(3^i) - 1) = val(x) + i = 1 + i.
    return Op("cli-witness", "badestimate/zp/p3/K12", argv=argv,
              expect={"defect_val": 1 + i})


def commutator_op() -> Op:
    argv = ["witness", "--kind", "commutator", "--ring", "zp", "--p", "2",
            "--precision", "3", "--n", "2", "--a", "1"]
    return Op("cli-witness", "commutator/zp/p2/K3", argv=argv,
              expect={"commutator_val": 2})


def wreath_op() -> Op:
    argv = ["witness", "--kind", "wreath", "--p", "2", "--precision", "12",
            "--i", "1", "--x", '"2"']
    return Op("cli-witness", "wreath/zp/p2/i1", argv=argv)


# ---------------------------------------------------------------------------
# Workloads: one round is the fixed mix that a run repeats.
# ---------------------------------------------------------------------------

# An odd number of ops per round, with the middle ones of similar cost,
# puts the median inside their merged block of samples.  The heaviest
# shape comes two or three times per round, with its own inputs, so the
# tail falls inside its block.  Neither statistic sits on a step between
# shapes, where a few samples more or less would move it.
PPRIME_SHAPES = [  # (group, mode, p, K, noise level k)
    ("S3", "zp", 5, 8, 3), ("S3", "zp", 7, 16, 4), ("S3", "fpx", 5, 12, 3),
    ("S4", "zp", 5, 8, 3), ("S4", "zp", 7, 12, 4), ("S4", "zp", 5, 16, 5),
] + [("S4", "fpx", 5, 8, 3)] * 3
# The large-p fpx slice, which today's package cannot repair.
PPRIME_DEFECT_SHAPES = [("S3", "fpx", 1021, 8, 3), ("S3", "fpx", 1021, 12, 4)]

PPART_SHAPES = [
    ("S3", "zp", 2, 8, 3), ("S3", "zp", 3, 8, 4), ("S3", "zp", 2, 16, 5),
    ("S3", "zp", 3, 16, 5), ("S3", "zp", 3, 12, 3),
] + [("D4", "zp", 2, 8, 7)] * 2


def pprime_round(rng) -> List[Op]:
    return [repair_op(*s, rng) for s in PPRIME_SHAPES]


def ppart_round(rng) -> List[Op]:
    return [repair_op(*s, rng) for s in PPART_SHAPES]


def ppart_once(rng) -> List[Op]:
    """S3 on 6 points: about 2 s an op, so once per run rather than per round."""
    return [repair_op("S3reg", "zp", p, 8, 3, rng) for p in (2, 3)]


def certify_round(rng) -> List[Op]:
    return [
        repair_op("S3", "zp", 5, 8, 3, rng, kind="cli-repair"),
        repair_op("S3", "zp", 2, 8, 3, rng, kind="cli-repair"),
        bs23_op(2, rng.randrange(3, 6), rng),
        bs23_op(3, rng.randrange(3, 6), rng),
        involution_op(rng.randrange(8, 13), rng),
        badestimate_op(rng),
        commutator_op(),
    ]


def certify_once(rng) -> List[Op]:
    """The wreath witness: about 2 s, and as much again for its verify."""
    return [wreath_op()]


def pprime_defects(rng) -> List[Op]:
    return [repair_op(*s, rng) for s in PPRIME_DEFECT_SHAPES]


def certify_defects(rng) -> List[Op]:
    """Bad inputs, whose documented exit code is 2."""
    return [bad_defect_op(rng), bad_level_op(2, rng), bad_level_op(3, rng)]


# name -> (one round, the ops run once per run before the rounds,
#          the known-defect probe run once per run after them)
WORKLOADS = {
    "pprime_repair": (pprime_round, lambda rng: [], pprime_defects),
    "ppart_repair": (ppart_round, ppart_once, lambda rng: []),
    "certify_roundtrip": (certify_round, certify_once, certify_defects),
}

# The slices that today's package gets wrong, as (shape, reason).  They
# fail on every input, so they are kept out of the timed rounds, whose
# ops must all succeed, and run once per run as an untimed probe whose
# failures are reported on their own.  A probe failure not listed here
# makes a run incorrect; a probe op that stops failing must pass its
# reference check.
KNOWN_DEFECTS = {
    "pprime_repair": {
        ("S3/fpx/p1021/K8", "raised Unsolvable"),     # fpx slot overflow at large p
        ("S3/fpx/p1021/K12", "raised Unsolvable"),
    },
    "ppart_repair": set(),
    "certify_roundtrip": {
        ("bad/defect>=1", "raised DefectTooLarge"),   # escapes cli.main
        ("bad/k<=2l/p2", "exit 1, documented 2"),
        ("bad/k<=2l/p3", "exit 1, documented 2"),
    },
}
