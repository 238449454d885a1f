"""Command-line front end.

Subcommands: defect, repair, witness, verify, gbs, claims, proptest,
monomial.  All numeric output is exact (integer or rational valuations);
runs are deterministic for a fixed seed, and artifacts are single JSON
files with a schema-version field.  Exit codes: 0 success / verification
passed, 1 verification failed, 2 input error or unmet precondition (defect
too large, k <= 2l, a p-part in equal characteristic).  `verify` re-derives
a certificate under the same caps (`--cap-*`, ULTRASTAB_CAPS) as `repair`
and `witness`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional

from . import proptests
from .aux_families import FiltrationRep, split_section_repair
from .certificates import (
    Certificate,
    VerificationFailure,
    canonical_json,
    check_claim,
    digest,
    encode_val,
    repair_certificate,
)
from .char2_involutions import involution_repair
from .gbs_criteria import GBSGraph, check_pifree_criterion, gbs_vertex_order_bound
from .homrepair import (
    CharPUnsupported,
    GraphOfGroups,
    HypothesisViolated,
    RepairError,
    graph_repair,
    repair_finite_image,
)
from .local_ring import RingError, RingSpec
from .presentations import (
    DEFAULT_CLOSURE_CAP,
    ApproxRep,
    CapExceeded,
    DefectTooLarge,
    PresentationError,
)
from .ultranorm_linalg import UMatrix, Unsolvable, nearest_monomial_commutant
from .witnesses import (
    DEFAULT_DIM_CAP,
    DEFAULT_ENUM_CAP,
    DEFAULT_WREATH_INDEX_CAP,
    WitnessError,
    commutator_witness_oracle,
    hdist_gl1_cyclic,
    make_badestimate_rep,
    make_commutator_witness,
    make_wreath_rep,
    verify_claims,
    wreath_rep_defect_certificate,
)

CAPS_ENV = "ULTRASTAB_CAPS"


@dataclass
class RunConfig:
    """Caps and determinism knobs; env ULTRASTAB_CAPS overrides globally."""

    closure_cap: int = DEFAULT_CLOSURE_CAP
    enum_cap: int = DEFAULT_ENUM_CAP
    dim_cap: int = DEFAULT_DIM_CAP
    wreath_index_cap: int = DEFAULT_WREATH_INDEX_CAP
    seed: int = 0
    out: Optional[str] = None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        cfg = cls()
        env = os.environ.get(CAPS_ENV)
        if env:
            for key, value in json.loads(env).items():
                if hasattr(cfg, key):
                    setattr(cfg, key, int(value))
        for attr, flag in (("closure_cap", "cap_closure"),
                           ("enum_cap", "cap_enum"),
                           ("dim_cap", "cap_dim"),
                           ("wreath_index_cap", "cap_wreath_index")):
            v = getattr(args, flag, None)
            if v is not None:
                setattr(cfg, attr, v)
        if getattr(args, "seed", None) is not None:
            cfg.seed = args.seed
        if getattr(args, "out", None) is not None:
            cfg.out = args.out
        return cfg


class InputError(ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}")


def _write_json(path: Optional[str], obj: dict) -> None:
    text = canonical_json(obj)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _ring_from_args(args) -> RingSpec:
    mode = {"zp": "zp", "fpx": "fpx"}[args.ring]
    return RingSpec(mode, args.p, args.precision)


def _load_rep(path: str) -> ApproxRep:
    obj = _load_json(path)
    if obj.get("kind") != "approx_rep":
        raise InputError(f"{path}: expected an approx_rep file")
    return ApproxRep.from_json(obj)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_defect(args) -> int:
    rep = _load_rep(args.rep)
    per_relator = []
    ident = UMatrix.identity(rep.ring, rep.n)
    for r in rep.presentation.relators:
        per_relator.append(encode_val(rep.eval_word(r).dist(ident)))
    report = {
        "schema_version": 1,
        "kind": "defect_report",
        "defect_val": encode_val(rep.defect()),
        "per_relator_vals": per_relator,
    }
    _write_json(args.out, report)
    return 0


def cmd_repair(args) -> int:
    cfg = RunConfig.from_args(args)
    if args.mode == "split-section":
        obj = _load_json(args.rep)
        rep = FiltrationRep.from_json(obj)
        fixed, moved = split_section_repair(rep)
        cert = Certificate(
            operation="repair-split-section",
            inputs_digest=digest(obj),
            before={"defect_level": rep.defect().encode()},
            after={"defect_level": fixed.defect().encode(),
                   "distance_level": moved.encode()},
            estimate_class="optimal",
            verified=True,
        )
        _write_json(args.out, fixed.to_json())
        _write_json(args.cert, cert.to_json())
        return 0

    rep = _load_rep(args.rep)
    inputs_obj = rep.to_json()
    if args.mode == "finite-image":
        fixed, ledger = repair_finite_image(rep, cap=cfg.closure_cap)
        estimate = "optimal" if ledger.p_part == 0 else "linear"
        cert = repair_certificate("repair-finite-image", inputs_obj, rep, fixed,
                                  ledger, estimate)
    elif args.mode == "graph":
        if not args.gog:
            raise InputError("--gog FILE is required for graph mode")
        gog = GraphOfGroups.from_json(_load_json(args.gog))
        fixed, ledger = graph_repair(gog, rep, cap=cfg.closure_cap)
        estimate = "optimal" if ledger.p_part == 0 else "linear"
        cert = repair_certificate("repair-graph",
                                  {"rep": inputs_obj, "gog": gog.to_json()},
                                  rep, fixed, ledger, estimate)
    elif args.mode == "involution":
        if len(rep.images) != 1:
            raise InputError("involution mode expects a single generator")
        fixed_mat = involution_repair(rep.images[0])
        fixed = rep.with_images([fixed_mat])
        cert = repair_certificate("repair-involution", inputs_obj, rep, fixed,
                                  None, "quadratic")
        d = rep.defect()
        dist = rep.rep_dist(fixed)
        if not (d.saturated or dist.saturated):
            if 2 * dist.valuation < d.valuation:
                raise VerificationFailure("quadratic bound violated")
    elif args.mode == "monomial":
        raise InputError("monomial mode is served by the `monomial` subcommand")
    else:
        raise InputError(f"unknown repair mode {args.mode}")
    _write_json(args.out, fixed.to_json())
    _write_json(args.cert, cert.to_json())
    return 0


def cmd_witness(args) -> int:
    cfg = RunConfig.from_args(args)
    ring = _ring_from_args(args)
    x = ring.decode(json.loads(args.x)) if args.x else ring.uniformizer()
    if args.kind == "badestimate":
        rep = make_badestimate_rep(args.p, args.i, x, args.precision,
                                   mode=ring.mode)
        hd = hdist_gl1_cyclic(rep, cap=cfg.enum_cap)
        cert = Certificate(
            operation="witness-badestimate",
            inputs_digest=digest({"p": args.p, "i": args.i, "x": ring.encode(x),
                                  "ring": ring.describe()}),
            after={"defect_val": encode_val(rep.defect())},
            witness={"hdist": hd.to_json()},
            verified=True,
        )
        _write_json(args.out, rep.to_json())
        _write_json(args.cert, cert.to_json())
        return 0
    if args.kind == "wreath":
        if ring.mode != "zp":
            raise InputError("wreath witness is built over Z/p^K")
        rep = make_wreath_rep(args.p, args.i, x, args.precision,
                              dim_cap=cfg.dim_cap,
                              index_cap=cfg.wreath_index_cap)
        wc = wreath_rep_defect_certificate(args.p, args.i, x, args.precision,
                                           seed=cfg.seed,
                                           index_cap=cfg.wreath_index_cap)
        cert = Certificate(
            operation="witness-wreath",
            inputs_digest=digest({"p": args.p, "i": args.i, "x": ring.encode(x),
                                  "ring": ring.describe()}),
            after={"defect_val": wc.defect_val},
            witness=wc.to_json(),
            verified=True,
        )
        _write_json(args.out, rep.to_json())
        _write_json(args.cert, cert.to_json())
        return 0
    if args.kind == "commutator":
        a = args.a
        A, B = make_commutator_witness(ring, args.n, a)
        result = None
        if not args.skip_oracle:
            result = commutator_witness_oracle(ring, args.n, a, cap=cfg.enum_cap)
        cert = Certificate(
            operation="witness-commutator",
            inputs_digest=digest({"ring": ring.describe(), "n": args.n, "a": a}),
            after={"commutator_norm_val": min(2 * a, ring.precision)},
            witness={"params": {"ring": ring.describe(), "n": args.n, "a": a},
                     "oracle": result.to_json() if result else None},
            verified=result is not None,
        )
        _write_json(args.out, {"schema_version": 1, "kind": "commutator_witness",
                               "A": A.to_json(), "B": B.to_json()})
        _write_json(args.cert, cert.to_json())
        return 0
    raise InputError(f"unknown witness kind {args.kind}")


def cmd_monomial(args) -> int:
    p_obj = _load_json(args.p_file)
    d_obj = _load_json(args.d_file)
    P = UMatrix.from_json(p_obj)
    D = UMatrix.from_json(d_obj)
    out = nearest_monomial_commutant(P, D)
    eps = ((P @ D) - (D @ P)).matnorm()
    achieved = (D - out).matnorm()
    cert = Certificate(
        operation="monomial-commutant",
        inputs_digest=digest({"P": p_obj, "D": d_obj}),
        before={"commutator_defect_val": encode_val(eps)},
        after={"distance_val": encode_val(achieved)},
        estimate_class="optimal",
        verified=True,
    )
    _write_json(args.out, out.to_json())
    _write_json(args.cert, cert.to_json())
    return 0


def cmd_gbs(args) -> int:
    obj = _load_json(args.graph)
    g = GBSGraph.from_json(obj)
    report = check_pifree_criterion(g, args.p)
    payload = report.to_json()
    if args.order_bounds and report.estimate_class != "none":
        payload["vertex_order_bounds"] = gbs_vertex_order_bound(g, args.p, report)
    _write_json(args.out, {"schema_version": 1, "kind": "gbs_report", **payload})
    return 0


def cmd_claims(args) -> int:
    cfg = RunConfig.from_args(args)
    report = verify_claims(args.max_i, p=args.p, index_cap=cfg.wreath_index_cap)
    _write_json(args.out, {"schema_version": 1, "kind": "claims_report",
                           **report.to_json()})
    return 0 if report.passed else 1


def cmd_proptest(args) -> int:
    ok, report = proptests.run_suite(args.suite, args.samples, args.seed)
    _write_json(args.out, report)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    cfg = RunConfig.from_args(args)
    cert = Certificate.from_json(_load_json(args.certificate))
    failures: List[str] = []
    op = cert.operation
    if op == "repair-finite-image":
        rep = _load_rep(args.input)
        check_claim("inputs_digest", cert.inputs_digest, digest(rep.to_json()),
                    failures)
        fixed, ledger = repair_finite_image(rep, cap=cfg.closure_cap)
        check_claim("before.defect_val", cert.before.get("defect_val"),
                    encode_val(rep.defect()), failures)
        check_claim("after.defect_val", cert.after.get("defect_val"),
                    encode_val(fixed.defect()), failures)
        check_claim("after.distance_val", cert.after.get("distance_val"),
                    encode_val(rep.rep_dist(fixed)), failures)
        if args.output:
            out = _load_rep(args.output)
            check_claim("output.defect_saturated", True,
                        out.defect().saturated, failures)
    elif op == "repair-graph":
        if not args.gog:
            raise InputError("--gog required to verify a graph repair")
        rep = _load_rep(args.input)
        gog = GraphOfGroups.from_json(_load_json(args.gog))
        check_claim("inputs_digest", cert.inputs_digest,
                    digest({"rep": rep.to_json(), "gog": gog.to_json()}), failures)
        fixed, _ = graph_repair(gog, rep, cap=cfg.closure_cap)
        check_claim("before.defect_val", cert.before.get("defect_val"),
                    encode_val(rep.defect()), failures)
        check_claim("after.defect_val", cert.after.get("defect_val"),
                    encode_val(fixed.defect()), failures)
        check_claim("after.distance_val", cert.after.get("distance_val"),
                    encode_val(rep.rep_dist(fixed)), failures)
    elif op == "repair-involution":
        rep = _load_rep(args.input)
        check_claim("inputs_digest", cert.inputs_digest, digest(rep.to_json()),
                    failures)
        fixed = rep.with_images([involution_repair(rep.images[0])])
        check_claim("before.defect_val", cert.before.get("defect_val"),
                    encode_val(rep.defect()), failures)
        check_claim("after.defect_val", cert.after.get("defect_val"),
                    encode_val(fixed.defect()), failures)
        check_claim("after.distance_val", cert.after.get("distance_val"),
                    encode_val(rep.rep_dist(fixed)), failures)
    elif op == "repair-split-section":
        obj = _load_json(args.input)
        rep = FiltrationRep.from_json(obj)
        check_claim("inputs_digest", cert.inputs_digest, digest(obj), failures)
        fixed, moved = split_section_repair(rep)
        check_claim("before.defect_level", cert.before.get("defect_level"),
                    rep.defect().encode(), failures)
        check_claim("after.defect_level", cert.after.get("defect_level"),
                    fixed.defect().encode(), failures)
        check_claim("after.distance_level", cert.after.get("distance_level"),
                    moved.encode(), failures)
    elif op == "witness-badestimate":
        rep = _load_rep(args.input)
        check_claim("after.defect_val", cert.after.get("defect_val"),
                    encode_val(rep.defect()), failures)
        hd = hdist_gl1_cyclic(rep, cap=cfg.enum_cap)
        check_claim("witness.hdist.value", cert.witness["hdist"]["value"],
                    hd.to_json()["value"], failures)
    elif op == "witness-wreath":
        claimed = cert.witness
        ring = RingSpec("zp", int(claimed["p"]), int(claimed["precision"]))
        wc = wreath_rep_defect_certificate(int(claimed["p"]), int(claimed["i"]),
                                           ring.decode(claimed["x"]),
                                           int(claimed["precision"]),
                                           seed=cfg.seed,
                                           index_cap=cfg.wreath_index_cap)
        check_claim("witness", claimed, wc.to_json(), failures)
        rep = _load_rep(args.input)
        check_claim("input.images", len(rep.images), 2, failures)
    elif op == "witness-commutator":
        params = cert.witness.get("params")
        if not params:
            raise InputError("commutator certificate lacks its parameters")
        ring = RingSpec.from_json(params["ring"])
        result = commutator_witness_oracle(ring, int(params["n"]), int(params["a"]),
                                           cap=cfg.enum_cap)
        check_claim("witness.oracle", cert.witness.get("oracle"),
                    result.to_json(), failures)
    elif op == "monomial-commutant":
        raise InputError("verify monomial certificates by re-running `monomial`")
    else:
        raise InputError(f"certificate operation {op!r} is not verifiable here")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print("PASS certificate reproduces from inputs")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_ring_args(sp) -> None:
    sp.add_argument("--ring", choices=["zp", "fpx"], default="zp")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--precision", type=int, default=8)


def _add_common(sp) -> None:
    sp.add_argument("--out", default=None, help="output artifact path (stdout if omitted)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap-closure", type=int, default=None, dest="cap_closure")
    sp.add_argument("--cap-enum", type=int, default=None, dest="cap_enum")
    sp.add_argument("--cap-dim", type=int, default=None, dest="cap_dim")
    sp.add_argument("--cap-wreath-index", type=int, default=None,
                    dest="cap_wreath_index")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ultrastab")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("defect", help="defect of an approximate representation")
    sp.add_argument("rep")
    _add_common(sp)
    sp.set_defaults(fn=cmd_defect)

    sp = sub.add_parser("repair", help="repair into an exact homomorphism")
    sp.add_argument("rep")
    sp.add_argument("--mode", required=True,
                    choices=["finite-image", "graph", "involution",
                             "monomial", "split-section"])
    sp.add_argument("--gog", default=None, help="graph-of-groups JSON (graph mode)")
    sp.add_argument("--cert", default=None, help="certificate output path")
    _add_common(sp)
    sp.set_defaults(fn=cmd_repair)

    sp = sub.add_parser("witness", help="construct an instability witness")
    sp.add_argument("--kind", required=True,
                    choices=["badestimate", "wreath", "commutator"])
    _add_ring_args(sp)
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--x", default=None, help="scalar JSON (default: uniformizer)")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--skip-oracle", action="store_true")
    sp.add_argument("--cert", default=None)
    _add_common(sp)
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("monomial", help="nearest exact commutant of a monomial matrix")
    sp.add_argument("p_file")
    sp.add_argument("d_file")
    sp.add_argument("--cert", default=None)
    _add_common(sp)
    sp.set_defaults(fn=cmd_monomial)

    sp = sub.add_parser("gbs", help="GBS stability criteria")
    sp.add_argument("graph")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--order-bounds", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=cmd_gbs)

    sp = sub.add_parser("claims", help="verify the wreath construction claims")
    sp.add_argument("--max-i", type=int, default=3, dest="max_i")
    sp.add_argument("--p", type=int, default=2)
    _add_common(sp)
    sp.set_defaults(fn=cmd_claims)

    sp = sub.add_parser("proptest", help="run a property-test suite")
    sp.add_argument("suite", choices=proptests.SUITES)
    sp.add_argument("--samples", type=int, default=200)
    _add_common(sp)
    sp.set_defaults(fn=cmd_proptest)

    sp = sub.add_parser("verify", help="re-derive a certificate from its inputs")
    sp.add_argument("certificate")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", default=None)
    sp.add_argument("--gog", default=None)
    _add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, PresentationError, RingError, ValueError,
            CapExceeded) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DefectTooLarge, HypothesisViolated, CharPUnsupported) as exc:
        print(f"precondition not met: {exc}", file=sys.stderr)
        return 2
    except (VerificationFailure, RepairError, Unsolvable, WitnessError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
