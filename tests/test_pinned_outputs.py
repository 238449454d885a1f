"""Pinned outputs of the repair engine.

SHA-256 digests of the repaired images and of the precision ledger for a
fixed-seed set of finite-image repairs (p prime to |C| and p dividing
|C|) and of BS(2,3) graph repairs, and of the repaired matrix for a
fixed-seed set of characteristic-2 involution repairs (perturbed conjugates
of block swaps over F_2[X]/(X^K)), of the certificate of a few Z/p^K
bad-estimate and wreath witnesses, of the artifact and certificate of a
few commutator witnesses, of the output and certificate of two repairs
whose image collapses, and of the diagonal Hdist lower bound
at p in {2, 3, 5}.  A change that moves any output bit, ledger level or
step method fails here; a change meant to do so must say so and re-pin.
"""

import ast
import hashlib
import json
import random
from pathlib import Path

import pytest

import ultrastab
from ultrastab.certificates import canonical_json
from ultrastab.char2_involutions import involution_repair
from ultrastab.cli import main
from ultrastab.homrepair import GogEdge, GogVertex, GraphOfGroups, graph_repair, repair_finite_image
from ultrastab.local_ring import RingSpec
from ultrastab.presentations import ApproxRep, Presentation
from ultrastab.ultranorm_linalg import UMatrix
from ultrastab.witnesses import hdist_lowerbound_diag

from conftest import random_gl, shifted_random


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


def _finite_image(mode, p, K, k, seed, names=("s", "t"), relators=S3_RELATORS,
                  perms=S3_PERMS):
    pres = Presentation.make(list(names), relators)
    return repair_finite_image, (_perturbed(pres, RingSpec(mode, p, K), perms, k, seed),)


S4_AVERAGING = dict(relators=[["s", "s"], ["t"] * 4, ["s", "t"] * 3],
                    perms=(_perm([1, 0, 2, 3]), _perm([1, 2, 3, 0])))
A4_AVERAGING = dict(names=("a", "b"), relators=[["a"] * 3, ["b"] * 2, ["a", "b"] * 3],
                    perms=(_perm([1, 2, 0, 3]), _perm([1, 0, 3, 2])))
# u is a second perturbed transposition in the class of s, so the edge (e, u)
# leaves C's tree; e is a perturbed identity, the generator class e
S3_DUPLICATE = dict(names=("s", "t", "u"), relators=S3_RELATORS + [["u", "s^-1"]],
                    perms=S3_PERMS + (S3_PERMS[0],))
S3_TRIVIAL = dict(names=("s", "t", "e"), relators=S3_RELATORS + [["e"]],
                  perms=S3_PERMS + (_perm([0, 1, 2]),))
# <s, t | s^2> does not present S3: the repair measures C's Schreier relators
S3_SCHREIER = dict(relators=[["s", "s"]])


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
    # averaging on larger images, repeated and trivial generator classes and
    # the Schreier list
    "S4/zp/p5/K8/k3": (_finite_image("zp", 5, 8, 3, 8, **S4_AVERAGING),
        "a065de72e21731b062b50cfcf614557e9ce70960ed8b62e215eb5a16d6ed65a1"),
    "S4/fpx/p5/K8/k3": (_finite_image("fpx", 5, 8, 3, 9, **S4_AVERAGING),
        "a9990796fab52c652695f82da16805691827761d8a72a2e8f728aa0af16053c6"),
    "A4/zp/p5/K10/k3": (_finite_image("zp", 5, 10, 3, 10, **A4_AVERAGING),
        "9bf19ca5657b1cd99d377748901649a816a72a70768782587eed95ab4aafa337"),
    "S3dup/zp/p7/K8/k3": (_finite_image("zp", 7, 8, 3, 11, **S3_DUPLICATE),
        "e754bdcd37809afc7ab97aa0c3c5b203f39b05c1b89ba5bb53a58fbfa56cb75e"),
    "S3dup/fpx/p5/K8/k3": (_finite_image("fpx", 5, 8, 3, 12, **S3_DUPLICATE),
        "07c96e65748c462073928b819e11067c44dc77555cca450519ed97e377838855"),
    "S3id/fpx/p5/K8/k3": (_finite_image("fpx", 5, 8, 3, 13, **S3_TRIVIAL),
        "af4c49bcb3e747537b3b07dbe344cbff16dca3552d46b81c95ef90144fc7928d"),
    "S3schreier/zp/p5/K12/k4": (_finite_image("zp", 5, 12, 4, 14, **S3_SCHREIER),
        "afe373d566ecc8fc265bda4edc08fde9801cc7c7453535efe0185f5e8874810d"),
    # p | N: every step takes the linear solve; its images are the particular
    # solution of the relators' Fox system, its ledger that of any solution
    "S3/zp/p2/K8/k3": (_finite_image("zp", 2, 8, 3, 4),
        "7ea6570db48149c083bd870f6687761b40b1a8254ec36efae1137174f2e147fc"),
    "S3/zp/p3/K12/k4": (_finite_image("zp", 3, 12, 4, 5),
        "229c98e0ecbb643a42905ac7d55dffe362af871306ff6b1398ca323c359ecd6c"),
    # each amalgamation is one exact Sylvester solve: its conjugator is that
    # system's particular solution, with one ledger step per alignment
    "BS23/zp/p2/K8/k3": (_bs23(2, 3, 6),
        "a19fded599cd6cff37f6b21f08cdc013fee1826d6f55ac1a66c4ceaf73cdc26b"),
    "BS23/zp/p3/K8/k4": (_bs23(3, 4, 7),
        "5e37cea06e7012fae9d1dd7424375efffda72bb2a8959c2e913b7def353366c6"),
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


def _involution(n, K, swaps, k, seed):
    """u (swaps block swaps (+) I) u^-1 plus noise of valuation >= k over F_2[X]/(X^K)."""
    ring, rng = RingSpec("fpx", 2, K), random.Random(seed)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(swaps):
        rows[i][i] = rows[swaps + i][swaps + i] = 0
        rows[i][swaps + i] = rows[swaps + i][i] = 1
    u = random_gl(ring, n, rng)
    return u @ UMatrix.from_int_rows(ring, rows) @ u.inv() + shifted_random(ring, n, rng, k)


INVOLUTION_CASES = {   # id -> (n, K, swaps, noise level, seed), SHA-256 of the repair
    "n1/K4/l0/k1": ((1, 4, 0, 1, 18),
        "f32262ce1128dc2874094b209b3ada8e1bd5d40080de85441ab443b23bd5a25c"),
    "n1/K10/l0/k3": ((1, 10, 0, 3, 2),
        "7c9d5c4161f19658ea51c6f7b98793f8b763c57a1ff4c487aa64d2e0050ec31f"),
    "n1/K16/l0/k5": ((1, 16, 0, 5, 3),
        "3bfe4b534328ab20c1f4a7c428980f3fabf54716a84e6da9220288e433e62348"),
    "n2/K4/l1/k1": ((2, 4, 1, 1, 4),
        "acdb4d5701f400dc92fae0dde7927be988bff870e5738b752ddd6a32bcc0d555"),
    "n2/K10/l0/k2": ((2, 10, 0, 2, 5),
        "29cdb739ff53b3a902df58e470a5b797fffca34949410b9be985a3a1b31abb9a"),
    "n2/K16/l1/k9": ((2, 16, 1, 9, 6),
        "b9cbb26e46762bf4bb91bd6e214dd217871a345addc68796ed97ae59fc0230cb"),
    "n5/K4/l2/k2": ((5, 4, 2, 2, 7),
        "203ebcb5fa768231e5e6b96308c2d945cc4cc59b67093811122079efd3e66c6c"),
    "n5/K10/l1/k3": ((5, 10, 1, 3, 8),
        "3359aec167daecf692028c8e87d95ab63ffe6799a0009f184cb59946b44030bf"),
    "n5/K16/l0/k5": ((5, 16, 0, 5, 9),
        "0eaf32dd2522213b317c191f60dcda9a1e3a7004c797d35ff63942f66f07164c"),
    "n8/K4/l2/k3": ((8, 4, 2, 3, 10),
        "27599e5243c6160b0ed4bbee15259c32606356a1eec97f3757c35a995650cb58"),
    "n8/K10/l4/k1": ((8, 10, 4, 1, 11),
        "5ade7ca00dcdf94a23f03636ad1b748c4fda6fc5e1a4ad6990a4a0d5145dbadc"),
    "n8/K16/l3/k7": ((8, 16, 3, 7, 12),
        "bb4d000c7a9717ddd9ee414a63fc39253288992429148fa51be65030211159fd"),
    "n12/K4/l3/k1": ((12, 4, 3, 1, 13),
        "97a90264823239ad51b3836cbbb5e08ad80a155ec59b4eb583661f8673004cab"),
    "n12/K10/l5/k4": ((12, 10, 5, 4, 14),
        "0f97da9f41a240dc18b0d94190ce0b312cc2d7a164e26ad0ca0ec3ec6cc21599"),
    "n12/K10/l0/k2": ((12, 10, 0, 2, 15),
        "3e458cf7dfc9889167122bb2e3f2ab494eab230078afb6ff538a081762daa85b"),
    "n12/K16/l6/k15": ((12, 16, 6, 15, 16),
        "78b6e1385f30db70ce6b7fbf7a42b65ce2afe6a42a52f6a7e467f4f5e77d5405"),
    "n12/K16/l2/k12": ((12, 16, 2, 12, 17),
        "70e7b7e8e751c7250ff14903f5a8a1bbbb8a33ad05951b35b9745848aa024da5"),
}


@pytest.mark.parametrize("case", sorted(INVOLUTION_CASES))
def test_pinned_involution_digest(case):
    shape, expected = INVOLUTION_CASES[case]
    a = _involution(*shape)
    dval = ((a @ a) - UMatrix.identity(a.ring, a.n)).min_valuation()
    assert 1 <= dval < a.ring.precision
    out = involution_repair(a)
    assert hashlib.sha256(canonical_json(out.to_json()).encode()).hexdigest() == expected


BADESTIMATE_CASES = {   # (p, K, i, x) -> SHA-256 of the Z/p^K witness certificate
    (3, 6, 1, 3): "582b5e9528f46f10db401bbbb42b52460a2beedf54fe8c97b61a8c9613c66a09",
    (3, 12, 4, 3): "414814f4b60e5b288aee3a999d2815dee6dc47e4caf45c35a1931df42e787226",
    (2, 10, 2, 4): "2438e8665fb576fb5be6d20f55b16612dea9ab732d71eaad50145786fd2a2383",
    (5, 6, 1, 5): "db74a4d88214ea44d782f98cbd59b8eadf6bea50fa627681ad3f5db63d163f23",
}


@pytest.mark.parametrize("case", sorted(BADESTIMATE_CASES))
def test_pinned_badestimate_certificate(case, tmp_path):
    p, K, i, x = case
    cert = tmp_path / "c.json"
    assert main(["witness", "--kind", "badestimate", "--ring", "zp", "--p", str(p),
                 "--precision", str(K), "--i", str(i), "--x", f'"{x}"',
                 "--out", str(tmp_path / "w.json"), "--cert", str(cert)]) == 0
    digest = hashlib.sha256(canonical_json(json.loads(cert.read_text())).encode()).hexdigest()
    assert digest == BADESTIMATE_CASES[case]


WREATH_CASES = {   # (p, K, i, x) -> SHA-256 of the wreath witness certificate
    (2, 12, 1, 2): "f8ece624feb3e293c8aff80e78fa0c7ddf1bd3428b91561f402630c9926ce1a6",
    (2, 12, 1, 6): "f12f556b886158a8d0dd179c3432e41a184447c8b870d2d757952389c98e3bd2",
    (3, 8, 1, 3): "db151c2951ae5967b01ae6e2957afdff45607de552b5c1d9b9500f2b1f8ca093",
}


@pytest.mark.parametrize("case", sorted(WREATH_CASES))
def test_pinned_wreath_certificate(case, tmp_path):
    p, K, i, x = case
    cert = tmp_path / "c.json"
    assert main(["witness", "--kind", "wreath", "--p", str(p), "--precision", str(K),
                 "--i", str(i), "--x", f'"{x}"', "--out", str(tmp_path / "w.json"),
                 "--cert", str(cert)]) == 0
    digest = hashlib.sha256(canonical_json(json.loads(cert.read_text())).encode()).hexdigest()
    assert digest == WREATH_CASES[case]


COMMUTATOR_CASES = {   # (mode, p, K, n, a) -> SHA-256 of the witness artifact and certificate
    # 262 pairs
    ("zp", 2, 3, 2, 1): ("d8ef19a31506a148b5265f9d84461999f42d7aa5f3d346389c6acc300caf0b41",
                         "5a569dd4e77b26595a17be20458cb7dbdcc7013e1d8d7aaa89a84536de1ef292"),
    # 266 pairs
    ("fpx", 2, 3, 2, 1): ("d574103574304736b3ccd72f63eee9e47df9dcbcd894ec0cfca77f6d655f234b",
                          "8f8d30aab2ed9b0feb205fab33998639b80f3ffce17f6dc52740ec627d80f677"),
    # 65,818 pairs
    ("zp", 2, 4, 2, 1): ("29765352401310184176b982aef7a1295670e52d20342b3cf0da67c62d1f0344",
                         "05e60122544d350b5baae6f37fdf15ba1eaa839c48e4fad96120c0f06fb3fc15"),
    # 65,802 pairs, feasible at level 2
    ("zp", 2, 5, 2, 2): ("88fcad84fef7ae887d078fca00e8e60f62ccad7b6f5395b0c27358d07108be8e",
                         "ea98dbf9650068439e5be2ef25e7d6f0a1596e591a7aad8912633f65afe44123"),
}


@pytest.mark.parametrize("case", sorted(COMMUTATOR_CASES))
def test_pinned_commutator_witness(case, tmp_path):
    mode, p, K, n, a = case
    out, cert = tmp_path / "w.json", tmp_path / "c.json"
    assert main(["witness", "--kind", "commutator", "--ring", mode, "--p", str(p),
                 "--precision", str(K), "--n", str(n), "--a", str(a),
                 "--out", str(out), "--cert", str(cert)]) == 0
    assert tuple(hashlib.sha256(canonical_json(json.loads(f.read_text())).encode()).hexdigest()
                 for f in (out, cert)) == COMMUTATOR_CASES[case]


# E -> (image order, SHA-256 of the repair's output and certificate) for
# <a | a^3> over Z/3^8 with a = I + 27 E: a has order 3 mod 3^4, its defect
# level, and the repair moves it by 3^3, which may collapse the image
COLLAPSE_CASES = {
    ((1, 0), (0, 0)): (1, "72ef9e7f59a935a0cd625d2fd00bdea4725906a03db244475f66e170dc5e3ee3",
                       "9514e6bc2b83a4d6f1318b24668f409bf6da30cad21e9f9e83d0efca78ed7e48"),
    ((0, 1), (1, 0)): (3, "7b9de815dcc80d258540af8dcf9fa086d9fb6d40f158dc53321887cba792a05c",
                       "b18e073c338aed8edd5f20547d92d089d1141c6362b58f20bfa27f99ee92fe7a"),
}


@pytest.mark.parametrize("case", sorted(COLLAPSE_CASES))
def test_pinned_collapsing_image(case, tmp_path):
    ring = RingSpec("zp", 3, 8)
    a = UMatrix.from_int_rows(ring, [[int(i == j) + 27 * e for j, e in enumerate(row)]
                                     for i, row in enumerate(case)])
    rep = ApproxRep(Presentation.make(["a"], [["a", "a", "a"]]), ring, 2, [a])
    path, out, cert = tmp_path / "rep.json", tmp_path / "out.json", tmp_path / "cert.json"
    path.write_text(json.dumps(rep.to_json()))
    assert main(["repair", str(path), "--mode", "finite-image", "--out", str(out),
                 "--cert", str(cert)]) == 0
    order = json.loads(cert.read_text())["ledger"]["image_order"]
    assert (order,) + tuple(hashlib.sha256(canonical_json(json.loads(f.read_text())).encode())
                            .hexdigest() for f in (out, cert)) == COLLAPSE_CASES[case]


# (p, i) -> {x: SHA-256 of the diagonal lower bound's JSON over Z/p^12}; at
# p = 2, x = 2 and x = 6 sit nearer the root -1 than the root 1
HDIST_CASES = {
    (2, 1): {2: "ab9f7e19cbab2ddc5c5edeb1f3ed5d5fa5afa728e691ca2c953507db7b1e1b25",
             4: "ab9f7e19cbab2ddc5c5edeb1f3ed5d5fa5afa728e691ca2c953507db7b1e1b25",
             6: "a40bc3ec013586e97dde0610f4b035733f4f233b7abb16151f68e0b008b66efd",
             8: "a40bc3ec013586e97dde0610f4b035733f4f233b7abb16151f68e0b008b66efd"},
    (2, 2): {2: "82dc44d0d0ea59283d1dd6b1972c2a87dd54dff6dbe42f54dcaf55d1296eb7a7",
             4: "82dc44d0d0ea59283d1dd6b1972c2a87dd54dff6dbe42f54dcaf55d1296eb7a7",
             6: "657d8f7297ec6aee96901125565baf7f957e3a401cd2c5a47c1c62a4765820d8",
             8: "657d8f7297ec6aee96901125565baf7f957e3a401cd2c5a47c1c62a4765820d8"},
    (2, 3): {2: "ba3a2ded60cea797a9d023948c917df0385178be266a02a8923a2cf9e950b8f3",
             4: "ba3a2ded60cea797a9d023948c917df0385178be266a02a8923a2cf9e950b8f3",
             6: "d8329872b722e6a06d3eaf40ed6240d06a576f4884dee9b028ea7e291a064e6e",
             8: "d8329872b722e6a06d3eaf40ed6240d06a576f4884dee9b028ea7e291a064e6e"},
    (3, 1): {3: "1ed61d0c9d99a7ff7b456a60ed9aff5fe9429351c2555eab895dbd60c71ffed7",
             6: "1ed61d0c9d99a7ff7b456a60ed9aff5fe9429351c2555eab895dbd60c71ffed7",
             9: "4bd058910d87d73912362eec2d91bca730728c76ed1174a889671a4c1c8e3afd"},
    (3, 2): {3: "709d42c4175920a4a13a9bca32021a9f83f4cdb1b3dbd3c0c8f473d37ec8ad02",
             6: "709d42c4175920a4a13a9bca32021a9f83f4cdb1b3dbd3c0c8f473d37ec8ad02",
             9: "37c77d6ad8cc22fcae5a6abf867617400fce74304ed3025a243fe1326edf3d14"},
    (3, 3): {3: "d8c427488ccfa06efabfa29cde9f4b694e45aba2b2dabe1c819944c4ae7f98fc",
             6: "d8c427488ccfa06efabfa29cde9f4b694e45aba2b2dabe1c819944c4ae7f98fc",
             9: "cc44cfa8e06671a03021eb80017648f3f2153ea68bb721894d786f3a9cb23bbc"},
    (5, 1): {5: "8154552ec60b7f6c9bec540e9754c0596108e1885b5ed5cfb3dc21ef184bb0bb",
             10: "8154552ec60b7f6c9bec540e9754c0596108e1885b5ed5cfb3dc21ef184bb0bb",
             25: "306de434b143709c3abc506eec442c9325ca0107aa61dd9787d7382de98b826c"},
    (5, 2): {5: "18599f3df2a9ba59f22847502015b7493ed8bcb3faf0c4e521fe2b743747a11e",
             10: "18599f3df2a9ba59f22847502015b7493ed8bcb3faf0c4e521fe2b743747a11e",
             25: "9ed7937d80874112340ea89501c6e01e9f3d5ac4bdb8f73bdc3088ff7db3cb51"},
    (5, 3): {5: "bded15f299b62465da06ff56024f72a5273c5bf17b05e27723ae5d5dbf8c21a3",
             10: "bded15f299b62465da06ff56024f72a5273c5bf17b05e27723ae5d5dbf8c21a3",
             25: "56d41d5bbee7c6709ac494155facf39e7e25b92a94edbd22ffcc815177e49495"},
}


@pytest.mark.parametrize("case", sorted(HDIST_CASES))
def test_pinned_hdist_lowerbound(case):
    p, i = case
    ring = RingSpec("zp", p, 12)
    got = {x: hashlib.sha256(canonical_json(
        hdist_lowerbound_diag(p, i, x, ring).to_json()).encode()).hexdigest()
        for x in HDIST_CASES[case]}
    assert got == HDIST_CASES[case]


def test_package_draws_no_random_numbers():
    # the outputs pinned here are deterministic by construction: no module of
    # the package imports random or takes a generator as a parameter rng
    for path in sorted(Path(ultrastab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.arg):
                assert node.arg != "rng", f"{path.name}:{node.lineno} takes a parameter rng"
            elif isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "random" for a in node.names), \
                    f"{path.name}:{node.lineno} imports random"
            elif isinstance(node, ast.ImportFrom) and not node.level:
                assert node.module.split(".")[0] != "random", \
                    f"{path.name}:{node.lineno} imports random"
