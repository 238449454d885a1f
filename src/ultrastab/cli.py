"""Command-line front end.

Subcommands: defect, repair, witness, monomial, verify, gbs, claims,
proptest.  All numeric output is exact (integer or rational valuations);
runs are deterministic (only `proptest` draws random samples, from its
`--seed`), and artifacts are single JSON files with a schema-version
field.

`repair`, `witness` and `monomial` are rows of one table, `OPERATIONS`,
keyed by the certificate's `operation`.  A row loads its inputs (files
for the repairs and `monomial`; parameters for the witnesses, which the
certificate keeps in `witness.params`) and runs, returning the artifact
and its certificate; the command writes both.  `verify` loads the same
inputs, runs the same row under the same caps (`--cap-*`, ULTRASTAB_CAPS)
and compares the whole recomputed certificate with the file,
reporting the first differing key path; it then compares the recomputed
artifact, as JSON, with `--output` (repairs and `monomial`, if given) or
with `--input` (witnesses).

Exit codes: 0 success / verification passed, 1 verification failed, 2
input error (an unreadable or malformed file, an unknown cap) or unmet
precondition (defect too large, k <= 2l, a p-part in equal
characteristic).  `EXIT_CODES` maps each exception class to its exit
code and message prefix; the most specific class of an error wins.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

from . import proptests
from .aux_families import FiltrationRep, split_section_repair
from .certificates import (
    Certificate,
    VerificationFailure,
    canonical_json,
    digest,
    encode_val,
)
from .char2_involutions import ReductionFailed, involution_repair
from .gbs_criteria import GBSGraph, check_pifree_criterion, gbs_vertex_order_bound
from .homrepair import (
    CharPUnsupported,
    GraphOfGroups,
    HypothesisViolated,
    RepairError,
    graph_repair,
    repair_finite_image,
)
from .local_ring import RingSpec, _is_prime, norm_max
from .presentations import (
    DEFAULT_CLOSURE_CAP,
    ApproxRep,
    CapExceeded,
    DefectTooLarge,
)
from .ultranorm_linalg import UMatrix, Unsolvable, nearest_monomial_commutant
from .witnesses import (
    DEFAULT_DIM_CAP,
    DEFAULT_ENUM_CAP,
    DEFAULT_WREATH_INDEX_CAP,
    WitnessError,
    build_unstable_generators,
    commutator_witness_oracle,
    hdist_gl1_cyclic,
    make_badestimate_rep,
    make_commutator_witness,
    make_wreath_rep,
    verify_claims,
    wreath_rep_defect_certificate,
)

CAPS_ENV = "ULTRASTAB_CAPS"
# cap name (the key in ULTRASTAB_CAPS) -> destination of its --cap-* option
CAPS = {"closure_cap": "cap_closure", "enum_cap": "cap_enum",
        "dim_cap": "cap_dim", "wreath_index_cap": "cap_wreath_index"}


class InputError(ValueError):
    pass


@contextmanager
def _malformed(source: str):
    """A missing key or a JSON value of the wrong type is an input error."""
    try:
        yield
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise InputError(f"{source}: malformed ({type(exc).__name__}: {exc})") from None


def _env_caps() -> dict:
    text = os.environ.get(CAPS_ENV)
    caps = json.loads(text) if text else {}
    if not isinstance(caps, dict) or any(type(v) is not int for v in caps.values()):
        raise InputError(f"{CAPS_ENV} must be a JSON object of integer caps")
    unknown = sorted(caps.keys() - CAPS.keys())
    if unknown:
        raise InputError(f"{CAPS_ENV}: unknown cap {', '.join(unknown)} "
                         f"(the caps are {', '.join(CAPS)})")
    return caps


@dataclass
class RunConfig:
    """The caps: ULTRASTAB_CAPS sets them, --cap-* overrides it."""

    closure_cap: int = DEFAULT_CLOSURE_CAP
    enum_cap: int = DEFAULT_ENUM_CAP
    dim_cap: int = DEFAULT_DIM_CAP
    wreath_index_cap: int = DEFAULT_WREATH_INDEX_CAP

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        cfg = cls(**_env_caps())
        for cap, dest in CAPS.items():
            if getattr(args, dest) is not None:
                setattr(cfg, cap, getattr(args, dest))
        return cfg


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}")
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object")
    return obj


def _write_json(path: Optional[str], obj: dict) -> None:
    text = canonical_json(obj)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_rep(path: str) -> ApproxRep:
    obj = _load_json(path)
    if obj.get("kind") != "approx_rep":
        raise InputError(f"{path}: expected an approx_rep file")
    with _malformed(path):
        return ApproxRep.from_json(obj)


# ---------------------------------------------------------------------------
# Operations: load -> run -> (artifact, certificate)
# ---------------------------------------------------------------------------


class Operation(NamedTuple):
    """`load` turns input file paths (or, for a witness, its parameters)
    into inputs; `run(inputs, cfg)` returns (artifact JSON, Certificate)."""

    load: Callable
    run: Callable
    witness: bool = False


def _paths(files: List[str], n: int, expected: str) -> List[str]:
    if len(files) != n:
        raise InputError(f"expected {expected}, got {len(files)} input file(s)")
    return files


def _load_one_rep(files):
    (path,) = _paths(files, 1, "one representation file")
    return _load_rep(path)


def _load_graph(files):
    """The representation and its graph of groups; a bad word token fails here, at load."""
    rep_path, gog_path = _paths(files, 2, "a representation file and --gog FILE")
    rep, obj = _load_rep(rep_path), _load_json(gog_path)
    with _malformed(gog_path):
        return rep, GraphOfGroups.from_json(obj)


def _load_involution(files):
    rep = _load_one_rep(files)
    if len(rep.images) != 1 or [r.letters for r in rep.presentation.relators] != [(1, 1)]:
        raise InputError("involution mode expects the presentation <s | s s>")
    return rep


def _load_split_section(files):
    (path,) = _paths(files, 1, "one representation file")
    obj = _load_json(path)
    return obj, FiltrationRep.from_json(obj)


def _load_monomial(files):
    objs = [_load_json(f) for f in _paths(files, 2, "the files of P and D")]
    return objs, [UMatrix.from_json(obj) for obj in objs]


def _load_cyclic(params):
    ring = RingSpec.from_json(params["ring"])
    x, i = ring.decode(params["x"]), int(params["i"])
    if not 1 <= ring.val(x) < ring.precision:
        raise InputError(f"x must have valuation in [1, {ring.precision}), "
                         f"got {ring.val(x)}")
    if i < 0:
        raise InputError(f"i must be >= 0, got {i}")
    return ring, i, x


def _load_commutator(params):
    ring = RingSpec.from_json(params["ring"])
    n, a = int(params["n"]), int(params["a"])
    if n < 2:
        raise InputError(f"n must be >= 2, got {n}")
    if not 1 <= a < ring.precision:
        raise InputError(f"a must be in [1, {ring.precision}), got {a}")
    return ring, n, a


def _cyclic_params(ring: RingSpec, i: int, x: int) -> dict:
    return {"p": ring.p, "i": i, "x": ring.encode(x), "ring": ring.describe()}


def _repaired(operation: str, inputs_obj, rep: ApproxRep, fixed: ApproxRep, ledger):
    """A repair's artifact and certificate.  The involution repair keeps
    no lifting ledger; its estimate is quadratic, checked here."""
    before, dist = rep.defect(), rep.rep_dist(fixed)
    if ledger is None:
        estimate = "quadratic"
        if not (before.saturated or dist.saturated) and 2 * dist.valuation < before.valuation:
            raise VerificationFailure("quadratic bound violated")
    else:
        estimate = "optimal" if ledger.p_part == 0 else "linear"
    return fixed.to_json(), Certificate(
        operation, digest(inputs_obj),
        before={"defect_val": encode_val(before)},
        after={"defect_val": encode_val(fixed.defect()), "distance_val": encode_val(dist)},
        estimate_class=estimate,
        ledger=None if ledger is None else ledger.to_json())


# The run functions look the package functions up in this module's globals
# at call time, so that a patched binding (tracing, tests) is the one used.

def _run_finite_image(rep, cfg):
    fixed, ledger = repair_finite_image(rep, cap=cfg.closure_cap)
    return _repaired("repair-finite-image", rep.to_json(), rep, fixed, ledger)


def _run_graph(inputs, cfg):
    rep, gog = inputs
    fixed, ledger = graph_repair(gog, rep, cap=cfg.closure_cap)
    return _repaired("repair-graph", {"rep": rep.to_json(), "gog": gog.to_json()},
                     rep, fixed, ledger)


def _run_involution(rep, cfg):
    fixed = rep.with_images([involution_repair(rep.images[0])])
    return _repaired("repair-involution", rep.to_json(), rep, fixed, None)


def _run_split_section(inputs, cfg):
    obj, rep = inputs
    fixed, moved = split_section_repair(rep)
    return fixed.to_json(), Certificate(
        "repair-split-section", digest(obj),
        before={"defect_level": rep.defect().encode()},
        after={"defect_level": fixed.defect().encode(), "distance_level": moved.encode()})


def _run_monomial(inputs, cfg):
    (p_obj, d_obj), (P, D) = inputs
    out = nearest_monomial_commutant(P, D)
    return out.to_json(), Certificate(
        "monomial-commutant", digest({"P": p_obj, "D": d_obj}),
        before={"commutator_defect_val": encode_val(((P @ D) - (D @ P)).matnorm())},
        after={"distance_val": encode_val((D - out).matnorm())})


def _run_badestimate(inputs, cfg):
    ring, i, x = inputs
    rep = make_badestimate_rep(ring.p, i, x, ring.precision, mode=ring.mode)
    hd = hdist_gl1_cyclic(rep, cap=cfg.enum_cap)
    params = _cyclic_params(ring, i, x)
    return rep.to_json(), Certificate(
        "witness-badestimate", digest(params),
        after={"defect_val": encode_val(rep.defect())},
        witness={"hdist": hd.to_json(), "params": params})


def _run_wreath(inputs, cfg):
    ring, i, x = inputs
    if ring.mode != "zp":
        raise InputError("wreath witness is built over Z/p^K")
    gens = build_unstable_generators(ring.p, i, index_cap=cfg.wreath_index_cap)
    rep = make_wreath_rep(gens, x, ring.precision, dim_cap=cfg.dim_cap)
    wc = wreath_rep_defect_certificate(gens, x, ring.precision)
    params = _cyclic_params(ring, i, x)
    return rep.to_json(), Certificate(
        "witness-wreath", digest(params), after={"defect_val": wc.defect_val},
        witness={**wc.to_json(), "params": params})


def _run_commutator(inputs, cfg):
    ring, n, a = inputs
    A, B = make_commutator_witness(ring, n, a)
    oracle = commutator_witness_oracle(ring, n, a, cap=cfg.enum_cap)
    params = {"ring": ring.describe(), "n": n, "a": a}
    return ({"schema_version": 1, "kind": "commutator_witness",
             "A": A.to_json(), "B": B.to_json()},
            Certificate("witness-commutator", digest(params),
                        after={"commutator_norm_val": min(2 * a, ring.precision)},
                        witness={"params": params, "oracle": oracle.to_json()}))


OPERATIONS = {
    "repair-finite-image": Operation(_load_one_rep, _run_finite_image),
    "repair-graph": Operation(_load_graph, _run_graph),
    "repair-involution": Operation(_load_involution, _run_involution),
    "repair-split-section": Operation(_load_split_section, _run_split_section),
    "monomial-commutant": Operation(_load_monomial, _run_monomial),
    "witness-badestimate": Operation(_load_cyclic, _run_badestimate, witness=True),
    "witness-wreath": Operation(_load_cyclic, _run_wreath, witness=True),
    "witness-commutator": Operation(_load_commutator, _run_commutator, witness=True),
}

# exception class -> (exit code, message prefix).  main resolves an error
# along its MRO, so the most specific class wins: Unsolvable is a
# RingError, hence a ValueError, yet exits 1 as a failed repair.
EXIT_CODES = {
    ValueError: (2, "input error"),  # InputError, PresentationError, RingError
    CapExceeded: (2, "input error"),
    DefectTooLarge: (2, "precondition not met"),
    HypothesisViolated: (2, "precondition not met"),
    CharPUnsupported: (2, "precondition not met"),
    Unsolvable: (1, "verification failed"),
    VerificationFailure: (1, "verification failed"),
    RepairError: (1, "verification failed"),
    ReductionFailed: (1, "verification failed"),
    WitnessError: (1, "verification failed"),
}


def _run(operation: str, source, cfg: RunConfig):
    op = OPERATIONS[operation]
    with _malformed(operation):
        inputs = op.load(source)
    return op.run(inputs, cfg)


def _produce(args, operation: str, source) -> int:
    artifact, cert = _run(operation, source, RunConfig.from_args(args))
    _write_json(args.out, artifact)
    _write_json(args.cert, cert.to_json())
    return 0


def _first_difference(said, got, path: str):
    """(key path, file value, recomputed value) of the first difference, in
    sorted key order, between JSON read from a file and a recomputed value
    (compared as canonical JSON), or None."""
    if canonical_json(said) == canonical_json(got):
        return None
    if isinstance(said, dict) and isinstance(got, dict):
        for key in sorted(said.keys() | got.keys()):
            where = f"{path}.{key}" if path else key
            if key not in said or key not in got:
                return where, said.get(key, "<absent>"), got.get(key, "<absent>")
            found = _first_difference(said[key], got[key], where)
            if found:
                return found
    return path, said, got


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_defect(args) -> int:
    rep = _load_rep(args.rep)
    ident = UMatrix.identity(rep.ring, rep.n)
    dists = [rep.eval_word(r).dist(ident) for r in rep.presentation.relators]
    report = {
        "schema_version": 1,
        "kind": "defect_report",
        "defect_val": encode_val(norm_max(dists, rep.ring)),
        "per_relator_vals": [encode_val(d) for d in dists],
    }
    _write_json(args.out, report)
    return 0


def cmd_repair(args) -> int:
    return _produce(args, "repair-" + args.mode, [args.rep] + ([args.gog] if args.gog else []))


def cmd_witness(args) -> int:
    x = json.loads(args.x) if args.x else None
    ring = RingSpec.of(args.ring, args.p, args.precision)
    params = {"ring": ring.describe(), "i": args.i, "n": args.n, "a": args.a,
              "x": ring.encode(ring.uniformizer()) if x is None else x}
    return _produce(args, "witness-" + args.kind, params)


def cmd_monomial(args) -> int:
    return _produce(args, "monomial-commutant", [args.p_file, args.d_file])


def cmd_verify(args) -> int:
    cfg = RunConfig.from_args(args)
    claimed = _load_json(args.certificate)
    with _malformed(args.certificate):
        operation = claimed["operation"]
        if operation not in OPERATIONS:
            raise InputError(f"certificate operation {operation!r} is not verifiable here")
        witness = OPERATIONS[operation].witness
        if witness and (len(args.input) != 1 or args.output or args.gog):
            raise InputError("a witness certificate is verified against its "
                             "artifact alone: give it as the one --input")
        source = claimed["witness"]["params"] if witness else (
            args.input + ([args.gog] if args.gog else []))
    artifact_path = args.input[0] if witness else args.output
    expected = _load_json(artifact_path) if artifact_path else None
    artifact, cert = _run(operation, source, cfg)
    diff = _first_difference(claimed, cert.to_json(), "")
    if diff is None and expected is not None:
        diff = _first_difference(expected, artifact, "input" if witness else "output")
    if diff:
        where, said, got = diff
        print(f"FAIL {where}: file says {said!r}, recomputed {got!r}", file=sys.stderr)
        return 1
    print("PASS certificate reproduces from inputs")
    return 0


def cmd_gbs(args) -> int:
    obj = _load_json(args.graph)
    with _malformed(args.graph):
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
    if args.samples < 1:
        raise InputError(f"--samples must be >= 1, got {args.samples}")
    ok, report = proptests.run_suite(args.suite, args.samples, args.seed)
    _write_json(args.out, report)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _prime(text: str) -> int:
    """argparse type of every --p: a prime, else a usage error (exit 2)."""
    p = int(text)
    if not _is_prime(p):
        raise argparse.ArgumentTypeError(f"p must be a prime, got {p}")
    return p


def _add_common(sp, out: bool = True) -> None:
    if out:
        sp.add_argument("--out", default=None, help="output artifact path (stdout if omitted)")
    for dest in CAPS.values():
        sp.add_argument("--" + dest.replace("_", "-"), type=int, default=None, dest=dest)


def _kinds(prefix: str) -> List[str]:
    return [name[len(prefix):] for name in OPERATIONS if name.startswith(prefix)]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse_args call returns a
    fresh namespace, so calls share no state through it."""
    ap = argparse.ArgumentParser(prog="ultrastab")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("defect", help="defect of an approximate representation")
    sp.add_argument("rep")
    _add_common(sp)

    sp = sub.add_parser("repair", help="repair into an exact homomorphism")
    sp.add_argument("rep")
    sp.add_argument("--mode", required=True, choices=_kinds("repair-"))
    sp.add_argument("--gog", default=None, help="graph-of-groups JSON (graph mode)")
    sp.add_argument("--cert", default=None, help="certificate output path")
    _add_common(sp)

    sp = sub.add_parser("witness", help="construct an instability witness")
    sp.add_argument("--kind", required=True, choices=_kinds("witness-"))
    sp.add_argument("--ring", choices=["zp", "fpx"], default="zp")
    sp.add_argument("--p", type=_prime, default=2)
    sp.add_argument("--precision", type=int, default=8)
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--x", default=None, help="scalar JSON (default: uniformizer)")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--cert", default=None)
    _add_common(sp)

    sp = sub.add_parser("monomial", help="nearest exact commutant of a monomial matrix")
    sp.add_argument("p_file")
    sp.add_argument("d_file")
    sp.add_argument("--cert", default=None)
    _add_common(sp)

    sp = sub.add_parser("gbs", help="GBS stability criteria")
    sp.add_argument("graph")
    sp.add_argument("--p", type=_prime, required=True)
    sp.add_argument("--order-bounds", action="store_true")
    _add_common(sp)

    sp = sub.add_parser("claims", help="verify the wreath construction claims")
    sp.add_argument("--max-i", type=int, default=3, dest="max_i")
    sp.add_argument("--p", type=_prime, default=2)
    _add_common(sp)

    sp = sub.add_parser("proptest", help="run a property-test suite")
    sp.add_argument("suite", choices=proptests.SUITES)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)

    # no abbreviations: "--out" would otherwise be read as "--output"
    sp = sub.add_parser("verify", help="re-run an operation and compare its certificate",
                        allow_abbrev=False)
    sp.add_argument("certificate")
    sp.add_argument("--input", required=True, action="append",
                    help="input file (repeat for monomial: P, then D); a witness's artifact")
    sp.add_argument("--output", default=None, help="artifact of a repair or monomial")
    sp.add_argument("--gog", default=None)
    _add_common(sp, out=False)  # verify writes no artifact, only its exit code

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so that a patched binding (tracing, tests)
        # is the one used although the parser is cached
        return globals()["cmd_" + args.command](args)
    except Exception as exc:
        known = next((EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES), None)
        if known is None:
            raise
        code, prefix = known
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
