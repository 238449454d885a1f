import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ultrastab
from ultrastab import cli, homrepair
from ultrastab.cli import main
from ultrastab.char2_involutions import ReductionFailed
from ultrastab.homrepair import GogEdge, GogVertex, GraphOfGroups
from ultrastab.local_ring import RingSpec
from ultrastab.presentations import ApproxRep, Presentation
from ultrastab.ultranorm_linalg import UMatrix, Unsolvable

from conftest import bs_graph, shifted_random


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


def test_cmd_defect_evaluates_each_relator_once(tmp_path, monkeypatch, capsys):
    # one evaluation per relator serves both the per-relator values and the
    # defect: s^2 one matmul, t^3 two, (st)^2 st and its square, two; so 5,
    # where the letters take sum (|r| - 1) = 6
    ring = RingSpec("zp", 3, 6)
    pres = Presentation.make(["s", "t"], [["s", "s"], ["t", "t", "t"], ["s", "t", "s", "t"]])
    rng = random.Random(2)
    rep = ApproxRep(pres, ring, 2, [UMatrix.from_int_rows(ring, [[1, 1], [0, 2]])
                                    + shifted_random(ring, 2, rng, 2) for _ in range(2)])
    path = _write(tmp_path, "rep.json", rep.to_json())
    calls = []
    matmul = UMatrix.__matmul__
    monkeypatch.setattr(UMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    assert main(["defect", path]) == 0
    assert len(calls) == 5 < sum(len(r) - 1 for r in pres.relators)
    out = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    assert out["defect_val"] == rep.defect().valuation == min(out["per_relator_vals"])


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


def _finite_image_files(tmp_path):
    path, rep = _z3_rep_file(tmp_path)
    out_path = str(tmp_path / "fixed.json")
    cert_path = str(tmp_path / "cert.json")
    assert main(["repair", path, "--mode", "finite-image",
                 "--out", out_path, "--cert", cert_path]) == 0
    return cert_path, ["--input", path, "--output", out_path]


def test_cmd_verify_pass_and_tamper(tmp_path, capsys):
    cert_path, inputs = _finite_image_files(tmp_path)
    path, out_path = inputs[1], inputs[3]
    assert main(["verify", cert_path] + inputs) == 0
    cert = json.loads(open(cert_path).read())
    cert["after"]["distance_val"] = 1  # tamper
    tampered = _write(tmp_path, "tampered.json", cert)
    assert main(["verify", tampered, "--input", path]) == 1
    # the steps of the ledger are part of the certificate
    cert = json.loads(open(cert_path).read())
    assert cert["ledger"]["steps"]
    cert["ledger"]["steps"] = []
    tampered = _write(tmp_path, "tampered.json", cert)
    assert main(["verify", tampered, "--input", path]) == 1
    assert "FAIL ledger.steps" in capsys.readouterr().err
    # a forged output, exact too: the identity image of the order-3 generator,
    # at a distance the certificate does not claim
    rep = ApproxRep.from_json(json.loads(open(out_path).read()))
    forged = _write(tmp_path, "forged.json",
                    rep.with_images([UMatrix.identity(rep.ring, 2)]).to_json())
    assert main(["verify", cert_path, "--input", path, "--output", forged]) == 1
    assert "FAIL after.distance_val: file says 3, measured 0" in capsys.readouterr().err


def test_cmd_verify_rejects_out(tmp_path, capsys):
    # verify writes no artifact, so --out is a usage error, not silently ignored
    cert_path, inputs = _finite_image_files(tmp_path)
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", cert_path] + inputs + ["--out", str(report)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not report.exists()


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


def _graph_files(tmp_path):
    rep_path, gog_path, out_path, cert_path = _bs23_files(tmp_path)
    return cert_path, ["--input", rep_path, "--gog", gog_path, "--output", out_path]


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


def test_graph_words_with_powers(tmp_path):
    # BS(2,3) with its edge words spelled s^3 and s^2: the same repair,
    # output bytes and verification as the spelled-out tokens
    rep_path, gog_path, out_path, _ = _bs23_files(tmp_path)
    gog = json.loads(open(gog_path).read())
    gog["edges"][0].update(word_source=["s^3"], word_target=["s^2"])
    power_path = _write(tmp_path, "gog_pow.json", gog)
    power_out, power_cert = str(tmp_path / "fixed_pow.json"), str(tmp_path / "cert_pow.json")
    assert main(["repair", rep_path, "--mode", "graph", "--gog", power_path,
                 "--out", power_out, "--cert", power_cert]) == 0
    assert open(power_out, "rb").read() == open(out_path, "rb").read()
    assert main(["verify", power_cert, "--input", rep_path, "--gog", power_path,
                 "--output", power_out]) == 0


def test_graph_bad_tokens_exit_2(tmp_path, capsys):
    # a token that is not a string, or that names no generator, fails when
    # the graph is loaded: exit 2, no traceback, nothing written
    rep_path, gog_path, _, _ = _bs23_files(tmp_path)
    out_path = tmp_path / "bad_out.json"
    gog = json.loads(open(gog_path).read())
    for edge in ({"word_source": [1, 2]}, {"word_target": ["s", 3]},
                 {"word_source": ["u"]}, {"word_target": ["s^2^-1"]}):
        bad = dict(gog, edges=[dict(gog["edges"][0], **edge)])
        assert main(["repair", rep_path, "--mode", "graph", "--gog",
                     _write(tmp_path, "bad_gog.json", bad), "--out", str(out_path)]) == 2
        assert not out_path.exists()
    bad = dict(gog, vertices=[dict(gog["vertices"][0], relators=[["s", None]])])
    assert main(["repair", rep_path, "--mode", "graph", "--gog",
                 _write(tmp_path, "bad_gog.json", bad), "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("input error") == 5 and "Traceback" not in err
    assert err.count("is not a string") == 3 and err.count("unknown letter") == 2


def test_graph_tree_edges_not_spanning_exit_2(tmp_path, capsys):
    # vertices a and b with one in_tree self-loop at a: the count of tree
    # edges is right, yet b is unreached.  The graph fails when it is
    # loaded, before any vertex repair: exit 2, no output, no traceback
    rep_path, _, _, _ = _bs23_files(tmp_path)
    capsys.readouterr()
    gog = {"schema_version": 1, "kind": "graph_of_groups",
           "vertices": [{"name": "a", "generators": ["s"], "relators": []},
                        {"name": "b", "generators": ["u"], "relators": []}],
           "edges": [{"source": "a", "target": "a", "word_source": [], "word_target": [],
                      "letter": "t", "in_tree": True}]}
    out_path = tmp_path / "loop_out.json"
    assert main(["repair", rep_path, "--mode", "graph", "--gog",
                 _write(tmp_path, "loop_gog.json", gog), "--out", str(out_path)]) == 2
    assert not out_path.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("input error") and "does not reach every vertex" in captured.err


def _involution_files(tmp_path):
    ring = RingSpec("fpx", 2, 8)
    pres = Presentation.make(["s"], [["s", "s"]])
    x = ring.from_coeffs([1, 0, 0, 1])
    rep = ApproxRep(pres, ring, 1, [UMatrix(ring, 1, ((x,),))])
    rep_path = _write(tmp_path, "inv.json", rep.to_json())
    out_path = str(tmp_path / "fixed.json")
    cert_path = str(tmp_path / "cert.json")
    assert main(["repair", rep_path, "--mode", "involution",
                 "--out", out_path, "--cert", cert_path]) == 0
    return cert_path, ["--input", rep_path, "--output", out_path]


def test_involution_mode_needs_the_involution_presentation(tmp_path, capsys):
    # the involution repair solves A^2 = I: a presentation other than
    # <s | s s> is an input error (exit 2), not a certificate of another map
    ring = RingSpec("fpx", 2, 8)
    x = UMatrix(ring, 1, ((ring.from_coeffs([1, 0, 0, 1]),),))
    out_path = tmp_path / "fixed.json"
    for relators in ([["s"] * 3], [["s", "s"], ["s"] * 5], []):
        rep = ApproxRep(Presentation.make(["s"], relators), ring, 1, [x])
        path = _write(tmp_path, "inv.json", rep.to_json())
        assert main(["repair", path, "--mode", "involution", "--out", str(out_path),
                     "--cert", str(tmp_path / "cert.json")]) == 2
        assert not out_path.exists()
    err = capsys.readouterr().err
    assert err.count("expects the presentation <s | s s>") == 3 and "Traceback" not in err


def test_fpx_coefficient_not_an_integer_exits_2(tmp_path, capsys):
    # an F_2[X]/(X^4) entry with a coefficient 1.5 is an input error (exit 2,
    # no output), never read as the coefficient 1
    ring = RingSpec("fpx", 2, 4)
    swap = UMatrix.from_int_rows(ring, [[0, 1], [1, 0]])
    obj = ApproxRep(Presentation.make(["s"], [["s", "s"]]), ring, 2, [swap]).to_json()
    obj["images"][0][1] = [1.5]
    path = _write(tmp_path, "frac.json", obj)
    out_path = tmp_path / "fixed.json"
    assert main(["repair", path, "--mode", "involution", "--out", str(out_path)]) == 2
    assert not out_path.exists()
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "1.5" in err and "Traceback" not in err


def test_zp_scalar_not_canonical_exits_2(tmp_path, capsys):
    # a Z/2^4 entry spelt "+1", "01" or " 1" is an input error (exit 2, no
    # output), never read as 1
    ring = RingSpec("zp", 2, 4)
    swap = UMatrix.from_int_rows(ring, [[0, 1], [1, 0]])
    obj = ApproxRep(Presentation.make(["s"], [["s", "s"]]), ring, 2, [swap]).to_json()
    out_path = tmp_path / "fixed.json"
    for spelling in ("+1", "01", " 1"):
        obj["images"][0][1] = spelling
        path = _write(tmp_path, "noncanonical.json", obj)
        assert main(["repair", path, "--mode", "finite-image", "--out", str(out_path)]) == 2
        assert not out_path.exists()
        err = capsys.readouterr().err
        assert err.startswith("input error:") and repr(spelling) in err
        assert "Traceback" not in err


def test_index_arguments_below_range_exit_2(tmp_path, capsys):
    # a negative bad-estimate index and a claims range below 1 are input
    # errors: no traceback from p ** i, and no pass after zero checks
    witness = ["witness", "--kind", "badestimate", "--ring", "zp", "--p", "3",
               "--precision", "6", "--x", '"3"', "--out", str(tmp_path / "w.json"),
               "--cert", str(tmp_path / "c.json")]
    assert main(witness + ["--i", "-1"]) == 2
    assert not (tmp_path / "w.json").exists()
    for max_i in ("-2", "0"):
        assert main(["claims", "--max-i", max_i, "--p", "2"]) == 2
    out, err = capsys.readouterr()
    assert err.count("input error") == 3 and "Traceback" not in err
    assert "i must be >= 0, got -1" in err and "max_i 0 outside [1, " in err
    assert "passed" not in out
    # i = 0 is the trivial cyclic group, still a witness
    assert main(witness + ["--i", "0"]) == 0
    assert main(["verify", str(tmp_path / "c.json"), "--input", str(tmp_path / "w.json")]) == 0


def test_cmd_repair_involution(tmp_path):
    cert_path, (_, _, _, out_path) = _involution_files(tmp_path)
    fixed = ApproxRep.from_json(json.loads(open(out_path).read()))
    assert fixed.defect().saturated
    cert = json.loads(open(cert_path).read())
    assert cert["estimate_class"] == "quadratic"


def _witness_files(tmp_path, argv, tag=""):
    out_path = str(tmp_path / f"w{tag}.json")
    cert_path = str(tmp_path / f"c{tag}.json")
    assert main(["witness"] + argv + ["--out", out_path, "--cert", cert_path]) == 0
    return cert_path, ["--input", out_path]


def _badestimate_files(tmp_path, x="3"):
    return _witness_files(tmp_path, ["--kind", "badestimate", "--ring", "zp", "--p", "3",
                                     "--precision", "6", "--i", "1", "--x", f'"{x}"'], x)


def test_cmd_witness_badestimate(tmp_path):
    cert_path, inputs = _badestimate_files(tmp_path)
    cert = json.loads(open(cert_path).read())
    assert cert["after"]["defect_val"] == 2
    assert cert["witness"]["hdist"]["value"] == {"exponent": 1}
    assert cert["witness"]["params"] == {"p": 3, "i": 1, "x": "3",
                                         "ring": {"mode": "zp", "p": 3, "precision": 6}}
    assert main(["verify", cert_path] + inputs) == 0
    cert["inputs_digest"] = "0" * 64
    assert main(["verify", _write(tmp_path, "bad.json", cert)] + inputs) == 1
    # the x = 3 certificate against the x = 6 witness
    _, inputs6 = _badestimate_files(tmp_path, x="6")
    assert main(["verify", cert_path] + inputs6) == 1


def test_cmd_gbs(tmp_path, capsys):
    path = _write(tmp_path, "g.json", bs_graph(2, 3).to_json())
    assert main(["gbs", path, "--p", "3", "--order-bounds"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pifree_met"] is True
    assert out["vertex_order_bounds"] == {"v": 0}


def test_cmd_gbs_rejects_malformed_graphs(tmp_path, capsys):
    # a weight that is not an integer, vertices that are not a list and a
    # vertex name that is not a string are input errors, never read as a
    # nearby graph
    good = bs_graph(2, 3).to_json()
    bad = []
    for w in (2.5, True, "3"):
        bad.append(dict(good, edges=[dict(good["edges"][0], w_minus=w)]))
    bad.append(dict(good, vertices="v"))
    bad.append({**good, "vertices": ["v", 1]})
    for i, obj in enumerate(bad):
        out = tmp_path / f"report{i}.json"
        assert main(["gbs", _write(tmp_path, f"g{i}.json", obj), "--p", "3",
                     "--out", str(out)]) == 2
        assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("input error") == 5 and "Traceback" not in err
    assert err.count("weights must be integers") == 3
    assert "vertices must be a list" in err and "vertex names must be strings" in err


def test_cmd_claims(capsys):
    assert main(["claims", "--max-i", "2", "--p", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


def _monomial_files(tmp_path):
    ring = RingSpec("zp", 2, 6)
    p_mat = UMatrix.from_int_rows(ring, [[0, 1], [1, 0]])
    d_mat = UMatrix.from_int_rows(ring, [[5, 0], [0, 9]])
    p_path = _write(tmp_path, "p.json", p_mat.to_json())
    d_path = _write(tmp_path, "d.json", d_mat.to_json())
    out_path = str(tmp_path / "dprime.json")
    cert_path = str(tmp_path / "cert.json")
    assert main(["monomial", p_path, d_path,
                 "--out", out_path, "--cert", cert_path]) == 0
    return cert_path, ["--input", p_path, "--input", d_path, "--output", out_path]


def test_cmd_monomial(tmp_path):
    cert_path, inputs = _monomial_files(tmp_path)
    out = UMatrix.from_json(json.loads(open(inputs[-1]).read()))
    assert out.rows == ((5, 0), (0, 5))
    assert main(["verify", cert_path] + inputs) == 0
    cert = json.loads(open(cert_path).read())
    cert["after"]["distance_val"] += 1
    assert main(["verify", _write(tmp_path, "bad.json", cert)] + inputs) == 1


def _split_section_files(tmp_path):
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
    return cert_path, ["--input", rep_path, "--output", out_path]


def test_cmd_verify_split_section(tmp_path):
    cert_path, (_, rep_path, _, _) = _split_section_files(tmp_path)
    assert main(["verify", cert_path, "--input", rep_path]) == 0
    cert = json.loads(open(cert_path).read())
    cert["after"]["distance_level"]["level"] = 0
    bad = _write(tmp_path, "bad_cert.json", cert)
    assert main(["verify", bad, "--input", rep_path]) == 1


WREATH_ARGV = ["--kind", "wreath", "--ring", "zp", "--p", "2",
               "--precision", "12", "--i", "1", "--x", '"2"']


def _wreath_files(tmp_path):
    return _witness_files(tmp_path, WREATH_ARGV)


def test_cmd_verify_witness_wreath(tmp_path, capsys):
    cert_path, inputs = _wreath_files(tmp_path)
    assert main(["verify", cert_path] + inputs) == 0
    # tampers: checked against an unrelated representation on two
    # generators, and without witness.p
    other = _bs23_files(tmp_path)[0]
    assert main(["verify", cert_path, "--input", other] + inputs[2:]) == 1
    cert = json.loads(open(cert_path).read())
    del cert["witness"]["p"]
    assert main(["verify", _write(tmp_path, "bad.json", cert)] + inputs) == 1
    del cert["witness"]["params"]
    assert main(["verify", _write(tmp_path, "bad.json", cert)] + inputs) == 2
    err = capsys.readouterr().err
    assert "FAIL witness.p" in err and "input error" in err and "Traceback" not in err


def test_cmd_witness_wreath_cap_enum(tmp_path):
    # the wreath defect is exact by the carry lemma and enumerates nothing:
    # an enumeration cap far below the 16384-element block group changes
    # no byte of the certificate
    default_cert, inputs = _wreath_files(tmp_path)
    capped_cert, _ = _witness_files(tmp_path, WREATH_ARGV + ["--cap-enum", "100"], "capped")
    text = open(capped_cert).read()
    assert text == open(default_cert).read()
    cert = json.loads(text)
    assert cert["witness"]["exact"] is True and cert["witness"]["group_order"] == 16384
    assert cert["witness"]["checked_pairs"] == 16
    assert main(["verify", capped_cert] + inputs + ["--cap-enum", "100"]) == 0


def _commutator_files(tmp_path):
    return _witness_files(tmp_path, ["--kind", "commutator", "--ring", "zp", "--p", "2",
                                     "--precision", "3", "--n", "2", "--a", "1"])


def test_cmd_verify_witness_commutator(tmp_path):
    cert_path, inputs = _commutator_files(tmp_path)
    assert main(["verify", cert_path] + inputs) == 0
    cert = json.loads(open(cert_path).read())
    cert["witness"]["oracle"]["feasible_level"] = 2
    bad = _write(tmp_path, "bad_cert.json", cert)
    assert main(["verify", bad] + inputs) == 1
    # the witness artifact is the one --input: an unrelated file fails
    unrelated, _ = _z3_rep_file(tmp_path)
    assert main(["verify", cert_path, "--input", unrelated]) == 1


def test_commutator_bad_input_exits_2(tmp_path, capsys):
    # n < 2, a < 1 and a >= K are inputs, not failed witnesses; a >= K
    # would otherwise write A = B = 0
    for extra in (["--n", "0"], ["--a", "-1"], ["--a", "5", "--precision", "3"]):
        assert main(["witness", "--kind", "commutator", "--ring", "zp", "--p", "2",
                     "--out", str(tmp_path / "w.json"), "--cert", str(tmp_path / "c.json")]
                    + extra) == 2
    err = capsys.readouterr().err
    assert err.count("input error") == 3 and "Traceback" not in err
    assert "n must be >= 2" in err and "a must be in [1, 3)" in err
    assert not (tmp_path / "w.json").exists()


def test_env_caps(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ULTRASTAB_CAPS", '{"wreath_index_cap": 1}')
    assert main(["claims", "--max-i", "2", "--p", "2"]) == 2  # cap now too low
    # exactly the four cap names: a misspelt cap or another setting is refused
    for env, key in (('{"closure-cap": 5}', "closure-cap"), ('{"seed": 1}', "seed"),
                     ('{"out": 1, "enum_cap": 5}', "out")):
        monkeypatch.setenv("ULTRASTAB_CAPS", env)
        assert main(["claims", "--max-i", "2", "--p", "2"]) == 2
        assert key in capsys.readouterr().err


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
    # malformed files: a certificate without its operation, a JSON array
    # where an object belongs, a graph repair without --gog
    cert = _write(tmp_path, "cert.json", {"kind": "certificate"})
    array = _write(tmp_path, "array.json", [1, 2])
    assert main(["verify", cert, "--input", path]) == 2
    assert main(["defect", array]) == 2
    cert_path, _ = _finite_image_files(tmp_path)
    assert main(["verify", cert_path, "--input", array]) == 2
    path, _ = _z3_rep_file(tmp_path)
    assert main(["repair", path, "--mode", "graph"]) == 2
    # a witness x of valuation 0 or >= K is an input, not a failed witness
    for kind in ("wreath", "badestimate"):
        for x in ("1", "0"):
            assert main(["witness", "--kind", kind, "--ring", "zp", "--p", "3",
                         "--precision", "6", "--x", f'"{x}"', "--out", str(tmp_path / "w.json"),
                         "--cert", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("input error") == 8 and "Traceback" not in err
    assert err.count("x must have valuation in [1, 6)") == 4
    # every --p is a prime: anything else is a usage error
    graph = _write(tmp_path, "g.json", bs_graph(2, 3).to_json())
    for p in ("0", "1", "4", "-2"):
        for argv in (["gbs", graph, "--p", p], ["claims", "--max-i", "1", "--p", p]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "p must be a prime" in capsys.readouterr().err


def test_cap_flags_only_where_a_cap_is_read(tmp_path, monkeypatch, capsys):
    # a subcommand has the --cap-* flags of the caps it reads, and verify all
    # four; any other cap flag is a usage error (exit 2), not silently inert.
    # Of the repair modes only finite-image and graph close an image: the
    # others refuse --cap-closure as an input error (exit 2, no output), while
    # ULTRASTAB_CAPS, which sets every cap, is accepted in every mode
    for tag, (files, mode) in enumerate(((_involution_files, "involution"),
                                         (_split_section_files, "split-section"))):
        work = tmp_path / f"mode{tag}"
        work.mkdir()
        _, (_, path, _, fixed) = files(work)
        out_path = work / "capped.json"
        capsys.readouterr()
        assert main(["repair", path, "--mode", mode, "--cap-closure", "1",
                     "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert not out_path.exists() and captured.out == ""
        assert captured.err.splitlines() == [
            f"input error: --cap-closure is read only in the finite-image and graph "
            f"modes, not in {mode}"]
        monkeypatch.setenv("ULTRASTAB_CAPS", '{"closure_cap": 1}')
        assert main(["repair", path, "--mode", mode, "--out", str(out_path)]) == 0
        monkeypatch.delenv("ULTRASTAB_CAPS")
        assert out_path.read_text() == open(fixed).read()
    rep_path, _ = _z3_rep_file(tmp_path)
    graph = _write(tmp_path, "g.json", bs_graph(2, 3).to_json())
    commands = {
        "defect": ["defect", rep_path],
        "repair": ["repair", rep_path, "--mode", "finite-image"],
        "witness": ["witness", "--kind", "commutator"],
        "monomial": ["monomial", rep_path, rep_path],
        "gbs": ["gbs", graph, "--p", "3"],
        "claims": ["claims"],
    }
    kept = {"repair": {"closure"}, "witness": {"enum", "dim", "wreath-index"},
            "claims": {"wreath-index"}}
    for command, argv in commands.items():
        for cap in ("closure", "enum", "dim", "wreath-index"):
            if cap in kept.get(command, ()):
                continue
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--cap-" + cap, "5"])
            assert exc.value.code == 2, (command, cap)
            assert "unrecognized arguments: --cap-" + cap in capsys.readouterr().err
    args = cli.build_parser().parse_args(
        ["verify", "c.json", "--input", rep_path, "--cap-closure", "1", "--cap-enum", "2",
         "--cap-dim", "3", "--cap-wreath-index", "4"])
    assert (args.cap_closure, args.cap_enum, args.cap_dim, args.cap_wreath_index) == (1, 2, 3, 4)


def test_unsolvable_exits_1(tmp_path, monkeypatch, capsys):
    # a lifting step that cannot be solved is a failed repair, not an input
    # error, although Unsolvable is a ValueError
    def unsolvable(rep, cap):
        raise Unsolvable("lift step failed to reach level 8 (got 6)", 6)
    monkeypatch.setattr(cli, "repair_finite_image", unsolvable)
    path, _ = _z3_rep_file(tmp_path)
    assert main(["repair", path, "--mode", "finite-image"]) == 1
    assert "verification failed" in capsys.readouterr().err


def test_involution_self_check_failure_exits_1(tmp_path, monkeypatch, capsys):
    # a failed self-check of the involution repair is a failed repair: exit 1
    # with the message, not a traceback, from repair and from a verify that
    # runs it for want of --output.  A verify given --output runs no repair
    cert_path, verify_args = _involution_files(tmp_path)
    rep_path = verify_args[1]

    def failing(a):
        raise ReductionFailed("block form failed its own verification")
    monkeypatch.setattr(cli, "involution_repair", failing)
    capsys.readouterr()
    for argv in (["repair", rep_path, "--mode", "involution"],
                 ["verify", cert_path] + verify_args[:2]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "verification failed: block form failed its own verification")
    assert main(["verify", cert_path] + verify_args) == 0


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
    cert_path, out_path = str(tmp_path / "cert.json"), str(tmp_path / "fixed.json")
    assert main(["repair", path, "--mode", "finite-image", "--cert", cert_path,
                 "--out", out_path, "--cap-closure", "6"]) == 0
    # the image S3 has 6 elements: written under a closure cap of 6, the
    # certificate verifies under it, and a cap of 2 cannot close C, whether
    # verify measures the given output or runs the repair for want of one
    for output in (["--output", out_path], []):
        assert main(["verify", cert_path, "--input", path, "--cap-closure", "6"] + output) == 0
        assert main(["verify", cert_path, "--input", path, "--cap-closure", "2"] + output) == 2


def _swap_involution_files(tmp_path):
    # a perturbed block swap over F_2[X]/(X^8): at n = 4 an output entry moved
    # by X^7 breaks A^2 = I, which at n = 1 it cannot, as (a + X^7)^2 = a^2
    ring, rng = RingSpec("fpx", 2, 8), random.Random(1)
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    rep = ApproxRep(Presentation.make(["s"], [["s", "s"]]), ring, 4,
                    [UMatrix.from_int_rows(ring, swap) + shifted_random(ring, 4, rng, 3)])
    rep_path = _write(tmp_path, "swap4.json", rep.to_json())
    out_path, cert_path = str(tmp_path / "fixed.json"), str(tmp_path / "cert.json")
    assert main(["repair", rep_path, "--mode", "involution",
                 "--out", out_path, "--cert", cert_path]) == 0
    return cert_path, ["--input", rep_path, "--output", out_path]


def _moved(obj):
    """An ApproxRep file with the first entry of its first image moved by w^{K-1}."""
    rep = ApproxRep.from_json(obj)
    ring, n = rep.ring, rep.n
    step = UMatrix(ring, n, tuple(tuple(ring.omega_pow(ring.precision - 1) if i == j == 0 else 0
                                        for j in range(n)) for i in range(n)))
    return rep.with_images([rep.images[0] + step] + list(rep.images[1:])).to_json()


def _tampers(tmp_path, cert, inputs):
    """(name, certificate, verify arguments, the key path its FAIL names) per tamper."""
    rep_path, out_path = inputs[1], inputs[-1]
    out = ApproxRep.from_json(json.loads(open(out_path).read()))
    ring, n, ngens = out.ring, out.n, len(out.images)
    wider = RingSpec(ring.mode, ring.p, ring.precision + 1)

    def arguments(rep=rep_path, output=out_path):
        return [rep if a == rep_path else output if a == out_path else a for a in inputs]

    def edited(path, value):
        changed = json.loads(json.dumps(cert))
        *keys, last = path.split(".")
        target = changed
        for key in keys:
            target = target[key]
        target[last] = value(target[last])
        return changed

    moved_out = _write(tmp_path, "moved_out.json", _moved(out.to_json()))
    moved_in = _write(tmp_path, "moved_in.json", _moved(json.loads(open(rep_path).read())))
    other_n = _write(tmp_path, "other_n.json", ApproxRep(
        out.presentation, ring, n + 1, [UMatrix.identity(ring, n + 1)] * ngens).to_json())
    other_ring = _write(tmp_path, "other_ring.json", ApproxRep(
        out.presentation, wider, n, [UMatrix.identity(wider, n)] * ngens).to_json())
    yield "moved output", cert, arguments(output=moved_out), "after.defect_val"
    yield ("edited distance", edited("after.distance_val", lambda v: 1 if v == "saturated"
                                     else v + 1), arguments(), "after.distance_val")
    yield "another input", cert, arguments(rep=moved_in), "inputs_digest"
    yield "output of another n", cert, arguments(output=other_n), "output.n"
    yield "output of another ring", cert, arguments(output=other_ring), "output.ring.precision"
    if cert["ledger"] is not None:
        assert len(cert["ledger"]["steps"]) >= 2
        for delta in (1, -1):
            yield (f"p_part {delta:+d}", edited("ledger.p_part", lambda v: v + delta),
                   arguments(), "ledger.p_part")
        yield "steps emptied", edited("ledger.steps", lambda v: []), arguments(), "ledger.steps"
        yield ("a step's spending edited", edited("ledger.steps", lambda v: [
            dict(v[0], distance_spent_val=v[0]["distance_spent_val"] + 1)] + v[1:]),
               arguments(), "ledger.steps")
        yield ("steps reversed", edited("ledger.steps", lambda v: v[::-1]), arguments(),
               "ledger.steps")


REPAIR_PRODUCERS = {
    "repair-finite-image": _finite_image_files,
    "repair-graph": _graph_files,
    "repair-involution": _swap_involution_files,
}


@pytest.mark.parametrize("operation", sorted(REPAIR_PRODUCERS))
def test_verify_fails_each_tamper(tmp_path, capsys, operation):
    # each tampered claim, output or input exits 1 with the key path it fails
    cert_path, inputs = REPAIR_PRODUCERS[operation](tmp_path)
    assert main(["verify", cert_path] + inputs) == 0
    cert = json.loads(open(cert_path).read())
    for name, tampered, arguments, where in _tampers(tmp_path, cert, inputs):
        capsys.readouterr()
        path = _write(tmp_path, "tampered.json", tampered)
        assert main(["verify", path] + arguments) == 1, name
        assert capsys.readouterr().err.startswith(f"FAIL {where}: file says "), name


def test_verify_runs_no_repair(tmp_path, monkeypatch):
    # given --output, a repair certificate is checked by measures alone: it
    # verifies with every repair function raising and the coset record of
    # homrepair unreadable
    produced = {}
    for operation in REPAIR_PRODUCERS.keys() | {"repair-split-section", "monomial-commutant"}:
        work = tmp_path / operation
        work.mkdir()
        produced[operation] = {**PRODUCERS, **REPAIR_PRODUCERS}[operation](work)

    def refuse(*args, **kwargs):
        raise AssertionError("verify ran a repair or read the coset record")
    for name in ("repair_finite_image", "graph_repair", "involution_repair",
                 "split_section_repair", "nearest_monomial_commutant"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(homrepair, "_presented", type("Unreadable", (dict,), {
        "get": refuse, "__getitem__": refuse, "__contains__": refuse})())
    for operation, (cert_path, inputs) in sorted(produced.items()):
        assert "--output" in inputs
        assert main(["verify", cert_path] + inputs) == 0, operation


# (group -> generators, relators, generator permutations); generator 0 moves
# point 0, so an output entry (0, 0) moved by w^{K-1} breaks its power relator
GROUPS = {
    "S3": (["s", "t"], [["s", "s"], ["t"] * 3, ["s", "t"] * 2], [(1, 0, 2), (1, 2, 0)]),
    "D4": (["r", "s"], [["r"] * 4, ["s", "s"], ["s", "r"] * 2], [(1, 2, 3, 0), (1, 0, 3, 2)]),
}
# (group, ring mode, p, K, defect level k): p | N only over Z/p^K, with k > 2l
SHAPES = [("S3", "zp", 5, 8, 3), ("S3", "zp", 2, 8, 3), ("S3", "zp", 3, 10, 3),
          ("S3", "fpx", 5, 8, 3), ("S3", "fpx", 7, 6, 2), ("D4", "zp", 3, 8, 3),
          ("D4", "zp", 2, 10, 7), ("D4", "fpx", 3, 8, 3), ("D4", "fpx", 5, 6, 2)]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2 ** 32 - 1))
def test_verify_accepts_what_repair_writes(shape, seed):
    # differential: every certificate that repair writes passes verify in a
    # process without the coset record, and fails once an output entry moves
    group, mode, p, K, k = shape
    names, relators, perms = GROUPS[group]
    ring, rng = RingSpec(mode, p, K), random.Random(seed)
    rep = ApproxRep(Presentation.make(names, relators), ring, len(perms[0]), [
        UMatrix.from_int_rows(ring, [[int(q[j] == i) for j in range(len(q))]
                                     for i in range(len(q))])
        + shifted_random(ring, len(q), rng, k) for q in perms])
    with tempfile.TemporaryDirectory() as work:
        rep_path = _write(Path(work), "rep.json", rep.to_json())
        out_path, cert_path = os.path.join(work, "out.json"), os.path.join(work, "cert.json")
        assert main(["repair", rep_path, "--mode", "finite-image",
                     "--out", out_path, "--cert", cert_path]) == 0
        homrepair._presented.clear()
        assert main(["verify", cert_path, "--input", rep_path, "--output", out_path]) == 0
        moved = _write(Path(work), "moved.json", _moved(json.loads(open(out_path).read())))
        assert main(["verify", cert_path, "--input", rep_path, "--output", moved]) == 1


# Every operation of the table, produced: (certificate, the verify arguments).
PRODUCERS = {
    "repair-finite-image": _finite_image_files,
    "repair-graph": _graph_files,
    "repair-involution": _involution_files,
    "repair-split-section": _split_section_files,
    "monomial-commutant": _monomial_files,
    "witness-badestimate": _badestimate_files,
    "witness-wreath": _wreath_files,
    "witness-commutator": _commutator_files,
}


@pytest.mark.parametrize("operation", sorted(cli.OPERATIONS))
def test_cmd_verify_round_trip(tmp_path, capsys, operation):
    # produce, verify, and verify once more with the estimate class changed:
    # a repair row measures it (from the p-part, from the quadratic bound, or
    # the constant of split-section and monomial), a witness re-derives it
    cert_path, inputs = PRODUCERS[operation](tmp_path)
    cert = json.loads(open(cert_path).read())
    assert cert["operation"] == operation
    assert main(["verify", cert_path] + inputs) == 0
    cert["estimate_class"] = "optimal" if cert["estimate_class"] == "quadratic" else "quadratic"
    assert main(["verify", _write(tmp_path, "tampered.json", cert)] + inputs) == 1
    assert "FAIL estimate_class" in capsys.readouterr().err


def _in_process(argv, capsys):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _fresh_process(argv, cwd):
    """(exit code, stdout, stderr) of the same call in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(ultrastab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "ultrastab.cli"] + argv, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout, done.stderr


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    # main builds its parser once per process: after any first call, a
    # second call must behave as it does in a fresh process
    monomial_cert, monomial_inputs = _monomial_files(tmp_path)
    witness_cert, witness_inputs = _badestimate_files(tmp_path)
    witness = ["witness", "--kind", "badestimate", "--p", "3", "--precision", "6",
               "--i", "2", "--x", '"3"']
    capped = witness + ["--cap-enum", "100"]
    # a repair verified in the process that repaired, which holds its coset
    # record, and in a new one; and with its output moved, a failed claim
    work = tmp_path / "s3"
    work.mkdir()
    repair_cert, repair_inputs = _finite_image_files(work)
    rep_path, out_path = repair_inputs[1], repair_inputs[-1]
    repair = ["repair", rep_path, "--mode", "finite-image", "--out", out_path,
              "--cert", repair_cert]
    moved = _write(work, "moved.json", _moved(json.loads(open(out_path).read())))
    moved_verify = ["verify", repair_cert, "--input", rep_path, "--output", moved]
    pairs = [
        # an append action given twice, then once
        (["verify", monomial_cert] + monomial_inputs, ["verify", witness_cert] + witness_inputs),
        # a cap given, then left out; and the other way round, past the roots' cache
        (capped, witness),
        (witness, capped),
        # a usage error, then a valid call
        (["witness", "--kind", "no-such-kind"], witness),
        (repair, ["verify", repair_cert] + repair_inputs),
        (repair, moved_verify),
    ]
    for first, second in pairs:
        _in_process(first, capsys)
        got = _in_process(second, capsys)
        assert got == _fresh_process(second, tmp_path), (first, second)
        assert got[0] == (2 if second is capped else 1 if second is moved_verify else 0)


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_trace_bindings_resolve(tmp_path):
    # perfbench/tracing.py wraps functions at these (module, name) bindings;
    # each must exist, and the cli must look them up at call time
    tracing = _tracing()
    for _, bindings in tracing.SPANS:
        for owner, attr in bindings:
            assert callable(tracing._resolve(ultrastab, owner).__dict__.get(attr)), (owner, attr)
    tracer = tracing.Tracer()
    tracer.install(ultrastab)
    try:
        cert_path, inputs = _finite_image_files(tmp_path)
        assert main(["verify", cert_path] + inputs) == 0
    finally:
        tracer.uninstall()
    c = tracer.counts
    assert c["cli.repair.calls"] == c["cli.verify.calls"] == 1
    # the verify, given --output, measures the repair's claims and runs no repair
    assert c["homrepair.repair_finite_image.calls"] == 1
    assert c["certificates.digest.calls"] == 2


def test_trace_counts_graph_alignment(tmp_path):
    # graph_repair must reach align_homomorphisms through the homrepair
    # module global, the binding that the homrepair.align span wraps
    tracer = _tracing().Tracer()
    tracer.install(ultrastab)
    try:
        _, _, _, cert_path = _bs23_files(tmp_path)
    finally:
        tracer.uninstall()
    steps = json.loads(open(cert_path).read())["ledger"]["steps"]
    conjugations = sum(s["method"] == "conjugation" for s in steps)
    c = tracer.counts
    assert c["homrepair.align.calls"] >= 1 and conjugations >= 1
    assert c["homrepair.steps.conjugation"] == conjugations
