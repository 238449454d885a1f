import json
import random

from ultrastab.cli import main
from ultrastab.homrepair import GogEdge, GogVertex, GraphOfGroups
from ultrastab.local_ring import RingSpec
from ultrastab.presentations import ApproxRep, Presentation
from ultrastab.ultranorm_linalg import UMatrix

from conftest import shifted_random


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _z3_rep_file(tmp_path, k=3, seed=0):
    ring = RingSpec("zp", 2, 8)
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    m = UMatrix.from_int_rows(ring, [[0, -1], [1, -1]])
    rng = random.Random(seed)
    rep = ApproxRep(pres, ring, 2, [m + shifted_random(ring, 2, rng, k)])
    return _write(tmp_path, "rep.json", rep.to_json()), rep


def test_cmd_defect(tmp_path, capsys):
    path, rep = _z3_rep_file(tmp_path)
    assert main(["defect", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["defect_val"] == rep.defect().valuation


def test_cmd_repair_finite_image(tmp_path):
    path, rep = _z3_rep_file(tmp_path)
    out_path = str(tmp_path / "fixed.json")
    cert_path = str(tmp_path / "cert.json")
    assert main(["repair", path, "--mode", "finite-image",
                 "--out", out_path, "--cert", cert_path]) == 0
    fixed = ApproxRep.from_json(json.loads(open(out_path).read()))
    assert fixed.defect().saturated
    cert = json.loads(open(cert_path).read())
    assert cert["estimate_class"] == "optimal"
    assert cert["after"]["defect_val"] == "saturated"
    assert cert["verified"] is True


def test_cmd_verify_pass_and_tamper(tmp_path, capsys):
    path, rep = _z3_rep_file(tmp_path)
    out_path = str(tmp_path / "fixed.json")
    cert_path = str(tmp_path / "cert.json")
    main(["repair", path, "--mode", "finite-image",
          "--out", out_path, "--cert", cert_path])
    assert main(["verify", cert_path, "--input", path,
                 "--output", out_path]) == 0
    cert = json.loads(open(cert_path).read())
    cert["after"]["distance_val"] = 1  # tamper
    tampered = _write(tmp_path, "tampered.json", cert)
    assert main(["verify", tampered, "--input", path]) == 1


def test_cmd_repair_determinism(tmp_path):
    path, _ = _z3_rep_file(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out_path = str(tmp_path / f"fixed_{tag}.json")
        cert_path = str(tmp_path / f"cert_{tag}.json")
        main(["repair", path, "--mode", "finite-image",
              "--out", out_path, "--cert", cert_path])
        outs.append((open(out_path, "rb").read(), open(cert_path, "rb").read()))
    assert outs[0] == outs[1]  # byte-identical artifacts


def _bs23_files(tmp_path):
    gog = GraphOfGroups(
        vertices=(GogVertex("v", ("s",), ()),),
        edges=(GogEdge("v", "v", ("s", "s", "s"), ("s", "s"), "t", False),),
    )
    pres = gog.standard_presentation()
    ring = RingSpec("zp", 3, 8)
    rows = [[0] * 5 for _ in range(5)]
    for j in range(5):
        rows[(j + 1) % 5][j] = 1
    P = UMatrix.from_int_rows(ring, rows)
    rows = [[0] * 5 for _ in range(5)]
    for j in range(5):
        rows[(4 * j) % 5][j] = 1
    Q = UMatrix.from_int_rows(ring, rows)
    rng = random.Random(1)
    rep = ApproxRep(pres, ring, 5, [P + shifted_random(ring, 5, rng, 3),
                                    Q + shifted_random(ring, 5, rng, 3)])
    rep_path = _write(tmp_path, "rep.json", rep.to_json())
    gog_path = _write(tmp_path, "gog.json", gog.to_json())
    out_path = str(tmp_path / "fixed.json")
    cert_path = str(tmp_path / "cert.json")
    assert main(["repair", rep_path, "--mode", "graph", "--gog", gog_path,
                 "--out", out_path, "--cert", cert_path]) == 0
    return rep_path, gog_path, out_path, cert_path


def test_cmd_repair_graph(tmp_path):
    _, _, out_path, _ = _bs23_files(tmp_path)
    fixed = ApproxRep.from_json(json.loads(open(out_path).read()))
    assert fixed.defect().saturated


def test_cmd_verify_graph_before_defect(tmp_path):
    rep_path, gog_path, _, cert_path = _bs23_files(tmp_path)
    assert main(["verify", cert_path, "--input", rep_path, "--gog", gog_path]) == 0
    cert = json.loads(open(cert_path).read())
    cert["before"]["defect_val"] += 1  # tamper
    bad = _write(tmp_path, "bad_cert.json", cert)
    assert main(["verify", bad, "--input", rep_path, "--gog", gog_path]) == 1


def test_cmd_repair_involution(tmp_path):
    ring = RingSpec("fpx", 2, 8)
    pres = Presentation.make(["s"], [["s", "s"]])
    x = ring.from_coeffs([1, 0, 0, 1])
    rep = ApproxRep(pres, ring, 1, [UMatrix(ring, 1, ((x,),))])
    rep_path = _write(tmp_path, "inv.json", rep.to_json())
    out_path = str(tmp_path / "fixed.json")
    cert_path = str(tmp_path / "cert.json")
    assert main(["repair", rep_path, "--mode", "involution",
                 "--out", out_path, "--cert", cert_path]) == 0
    fixed = ApproxRep.from_json(json.loads(open(out_path).read()))
    assert fixed.defect().saturated
    cert = json.loads(open(cert_path).read())
    assert cert["estimate_class"] == "quadratic"


def test_cmd_witness_badestimate(tmp_path):
    out_path = str(tmp_path / "w.json")
    cert_path = str(tmp_path / "c.json")
    assert main(["witness", "--kind", "badestimate", "--ring", "zp", "--p", "3",
                 "--precision", "6", "--i", "1", "--x", '"3"',
                 "--out", out_path, "--cert", cert_path]) == 0
    cert = json.loads(open(cert_path).read())
    assert cert["after"]["defect_val"] == 2
    assert cert["witness"]["hdist"]["value"] == {"exponent": 1}


def test_cmd_gbs(tmp_path, capsys):
    from ultrastab.gbs_criteria import GBSGraph
    path = _write(tmp_path, "g.json", GBSGraph.bs(2, 3).to_json())
    assert main(["gbs", path, "--p", "3", "--order-bounds"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pifree_met"] is True
    assert out["vertex_order_bounds"] == {"v": 0}


def test_cmd_claims(capsys):
    assert main(["claims", "--max-i", "2", "--p", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


def test_cmd_proptest(capsys):
    assert main(["proptest", "ring-laws", "--samples", "50"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == 0


def test_cmd_monomial(tmp_path):
    ring = RingSpec("zp", 2, 6)
    p_mat = UMatrix.from_int_rows(ring, [[0, 1], [1, 0]])
    d_mat = UMatrix.from_int_rows(ring, [[5, 0], [0, 9]])
    p_path = _write(tmp_path, "p.json", p_mat.to_json())
    d_path = _write(tmp_path, "d.json", d_mat.to_json())
    out_path = str(tmp_path / "dprime.json")
    cert_path = str(tmp_path / "cert.json")
    assert main(["monomial", p_path, d_path,
                 "--out", out_path, "--cert", cert_path]) == 0
    out = UMatrix.from_json(json.loads(open(out_path).read()))
    assert out.rows == ((5, 0), (0, 5))


def test_cmd_verify_split_section(tmp_path):
    from ultrastab.aux_families import FiltrationMetricSpec, FiltrationRep, TriangularOps
    spec = FiltrationMetricSpec(kind="triangular", modulus=4, dimension=3)
    ops = TriangularOps(3, 4)
    u = ((1, 1, 0), (0, 3, 2), (0, 0, 1))
    b = [list(r) for r in ops.mul(u, u)]
    b[1][2] = (b[1][2] + 2) % 4  # break commutation in column 3 only
    pres = Presentation.make(["a", "b"], [["a", "b", "a^-1", "b^-1"]])
    rep = FiltrationRep(pres, spec, [u, tuple(tuple(r) for r in b)])
    assert not rep.defect().below_finest
    rep_path = _write(tmp_path, "frep.json", rep.to_json())
    out_path = str(tmp_path / "fixed.json")
    cert_path = str(tmp_path / "cert.json")
    assert main(["repair", rep_path, "--mode", "split-section",
                 "--out", out_path, "--cert", cert_path]) == 0
    assert main(["verify", cert_path, "--input", rep_path]) == 0
    cert = json.loads(open(cert_path).read())
    cert["after"]["distance_level"]["level"] = 0
    bad = _write(tmp_path, "bad_cert.json", cert)
    assert main(["verify", bad, "--input", rep_path]) == 1


def test_cmd_verify_witness_wreath(tmp_path):
    out_path = str(tmp_path / "w.json")
    cert_path = str(tmp_path / "c.json")
    assert main(["witness", "--kind", "wreath", "--ring", "zp", "--p", "2",
                 "--precision", "12", "--i", "1", "--x", '"2"',
                 "--out", out_path, "--cert", cert_path]) == 0
    assert main(["verify", cert_path, "--input", out_path]) == 0


def test_cmd_verify_witness_commutator(tmp_path):
    out_path = str(tmp_path / "w.json")
    cert_path = str(tmp_path / "c.json")
    assert main(["witness", "--kind", "commutator", "--ring", "zp", "--p", "2",
                 "--precision", "3", "--n", "2", "--a", "1",
                 "--out", out_path, "--cert", cert_path]) == 0
    assert main(["verify", cert_path, "--input", out_path]) == 0
    cert = json.loads(open(cert_path).read())
    cert["witness"]["oracle"]["feasible_level"] = 2
    bad = _write(tmp_path, "bad_cert.json", cert)
    assert main(["verify", bad, "--input", out_path]) == 1


def test_env_caps(tmp_path, monkeypatch):
    monkeypatch.setenv("ULTRASTAB_CAPS", '{"wreath_index_cap": 1}')
    assert main(["claims", "--max-i", "2", "--p", "2"]) == 2  # cap now too low


def _gl1_rep_file(tmp_path, name, p, K, x, order):
    ring = RingSpec("zp", p, K)
    pres = Presentation.make(["s"], [["s"] * order])
    rep = ApproxRep(pres, ring, 1, [UMatrix.from_int_rows(ring, [[x]])])
    return _write(tmp_path, name, rep.to_json()), rep


def test_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["defect", missing]) == 2
    bad = _write(tmp_path, "bad.json", {"kind": "something_else"})
    assert main(["defect", bad]) == 2
    # unmet preconditions of a repair also exit 2, without a traceback:
    # defect >= 1, since s^3 = [[1, 3], [0, 1]] is not the identity mod 2
    ring = RingSpec("zp", 2, 8)
    pres = Presentation.make(["s"], [["s", "s", "s"]])
    rep = ApproxRep(pres, ring, 2, [UMatrix.from_int_rows(ring, [[1, 1], [0, 1]])])
    assert rep.defect().valuation == 0
    path = _write(tmp_path, "d1.json", rep.to_json())
    assert main(["repair", path, "--mode", "finite-image"]) == 2
    # k <= 2l at p = 2: 3 has order 4 mod 16 and val(3^4 - 1) = 4 = 2l
    path, rep = _gl1_rep_file(tmp_path, "p2.json", 2, 6, 3, 4)
    assert rep.defect().valuation == 4
    assert main(["repair", path, "--mode", "finite-image"]) == 2
    # k <= 2l at p = 3: 4 has order 3 mod 9 and val(4^3 - 1) = 2 = 2l
    path, rep = _gl1_rep_file(tmp_path, "p3.json", 3, 6, 4, 3)
    assert rep.defect().valuation == 2
    assert main(["repair", path, "--mode", "finite-image"]) == 2
    # a split-section input whose defect is the full scale
    from ultrastab.aux_families import FiltrationMetricSpec, FiltrationRep
    spec = FiltrationMetricSpec(kind="triangular", modulus=4, dimension=2)
    # a^3 has diagonal entry 3^3 = 3 mod 4, so the first columns disagree
    cube = Presentation.make(["a"], [["a", "a", "a"]])
    frep = FiltrationRep(cube, spec, [((3, 1), (0, 1))])
    assert frep.defect().level == 0
    path = _write(tmp_path, "frep.json", frep.to_json())
    assert main(["repair", path, "--mode", "split-section"]) == 2
    err = capsys.readouterr().err
    assert err.count("precondition not met") == 4 and "Traceback" not in err


def test_cmd_verify_honors_caps(tmp_path):
    ring = RingSpec("zp", 5, 8)
    pres = Presentation.make(["s", "t"], [["s", "s"], ["t", "t", "t"],
                                          ["s", "t", "s", "t"]])
    rng = random.Random(3)
    s = UMatrix.from_int_rows(ring, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    t = UMatrix.from_int_rows(ring, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    rep = ApproxRep(pres, ring, 3, [s + shifted_random(ring, 3, rng, 3),
                                    t + shifted_random(ring, 3, rng, 3)])
    path = _write(tmp_path, "s3.json", rep.to_json())
    cert_path = str(tmp_path / "cert.json")
    assert main(["repair", path, "--mode", "finite-image", "--cert", cert_path,
                 "--out", str(tmp_path / "fixed.json")]) == 0
    assert main(["verify", cert_path, "--input", path]) == 0
    # the image S3 has 6 elements: a closure cap of 2 cannot re-derive it
    assert main(["verify", cert_path, "--input", path, "--cap-closure", "2"]) == 2
