"""Command-line front end.

Subcommands: defect, repair, witness, monomial, verify, gbs, claims.
All numeric output is exact (integer or rational valuations); runs are
deterministic (the package draws no random numbers), and artifacts are
single JSON files with a schema-version field.

`repair`, `witness` and `monomial` are rows of one table, `OPERATIONS`,
keyed by the certificate's `operation`.  A row loads its inputs (files
for the repairs and `monomial`; parameters for the witnesses, which the
certificate keeps in `witness.params`) and runs, returning the artifact
and its certificate; the command writes both.  `verify` checks a repair's
claims (digest, norms, exactness, bound, p-part; the ledger's steps are a
record, checked for consistency) by the row's `measure` on the inputs and
`--output`, or without it on the artifact of a run; it re-derives a
witness from its parameters under the caps (`--cap-*`, ULTRASTAB_CAPS)
and compares it whole.  It names the first failing key path.

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
from .local_ring import NormValue, RingSpec, _is_prime, norm_max
from .presentations import (
    DEFAULT_CLOSURE_CAP,
    ApproxRep,
    CapExceeded,
    DefectTooLarge,
    closure_of_matrices,
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
CLOSURE_MODES = ("finite-image", "graph")  # the repair modes that close a finite image


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
    """The caps: ULTRASTAB_CAPS sets them, the --cap-* flags that a
    subcommand has override it."""

    closure_cap: int = DEFAULT_CLOSURE_CAP
    enum_cap: int = DEFAULT_ENUM_CAP
    dim_cap: int = DEFAULT_DIM_CAP
    wreath_index_cap: int = DEFAULT_WREATH_INDEX_CAP

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        cfg = cls(**_env_caps())
        for cap, dest in CAPS.items():
            if getattr(args, dest, None) is not None:
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
    into inputs; `run(inputs, cfg)` returns (artifact JSON, Certificate).
    A repair's `measure(inputs, artifact, claimed, cfg)` returns the
    certificate that its inputs and artifact support; a witness has none."""

    load: Callable
    run: Callable
    measure: Optional[Callable] = None


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


def _certificate(operation: str, inputs_digest: str, before: NormValue, after: NormValue,
                 dist: NormValue, ledger: Optional[dict] = None) -> Certificate:
    """An ApproxRep repair's certificate from its norms.  A lifting repair is
    optimal when its ledger's bound is the defect (p-part 0); the involution
    repair is quadratic when 2 val(dist) >= val(defect)."""
    quadratic = before.saturated or dist.saturated or 2 * dist.valuation >= before.valuation
    estimate = ("quadratic" if quadratic else "beyond the quadratic bound") if ledger is None \
        else "optimal" if ledger["final_distance_bound_val"] == ledger["initial_defect_val"] \
        else "linear"
    return Certificate(operation, inputs_digest, before={"defect_val": encode_val(before)},
                       after={"defect_val": encode_val(after), "distance_val": encode_val(dist)},
                       estimate_class=estimate, ledger=ledger)


def _repaired(operation: str, inputs_obj, rep: ApproxRep, fixed: ApproxRep, ledger):
    """A repair's artifact and certificate.  A lifting repair's norms are
    read from the ledger that its final re-measure filled; the involution
    repair keeps none, so its norms are measured here."""
    if ledger is None:
        norms = rep.defect(), fixed.defect(), rep.rep_dist(fixed)
    else:
        norms = [NormValue.from_valuation(rep.ring, v) for v in (
            ledger.initial_defect_val, rep.ring.precision, ledger.final_distance_val)]
    cert = _certificate(operation, digest(inputs_obj), *norms, ledger and ledger.to_json())
    if cert.estimate_class == "beyond the quadratic bound":
        raise VerificationFailure("quadratic bound violated")
    return fixed.to_json(), cert


def _split_certificate(inputs_digest: str, rep: FiltrationRep, out: FiltrationRep):
    """The certificate that rep and out support: out within the defect of rep."""
    d, moved = rep.defect(), rep.rep_dist(out)
    within = moved.below_finest or moved.value <= d.value
    return Certificate("repair-split-section", inputs_digest, before={"defect_level": d.encode()},
                       after={"defect_level": out.defect().encode(), "distance_level":
                              moved.encode() if within else "beyond the defect"})


def _monomial_certificate(inputs_digest: str, P: UMatrix, D: UMatrix, out: UMatrix):
    """The certificate that P, D and out support: out commutes with P, within
    the commutator defect of D."""
    eps, dist = (P @ D).dist(D @ P), D.dist(out)
    exact = (P @ out).dist_valuation(out @ P) >= P.ring.precision
    return Certificate("monomial-commutant", inputs_digest,
                       before={"commutator_defect_val": encode_val(eps)},
                       after={"distance_val": encode_val(dist) if exact and dist <= eps
                              else "no exact commutant within the defect"})


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
    fixed, _ = split_section_repair(rep)
    return fixed.to_json(), _split_certificate(digest(obj), rep, fixed)


def _run_monomial(inputs, cfg):
    (p_obj, d_obj), (P, D) = inputs
    out = nearest_monomial_commutant(P, D)
    return out.to_json(), _monomial_certificate(digest({"P": p_obj, "D": d_obj}), P, D, out)


class _Mismatch(Exception):
    """A claim that fails its measure: (key path, file value, measured value)."""


def _checked(claimed: dict, inputs_obj, model: dict, artifact: dict, parse):
    """The artifact parsed, if the certificate's digest is the inputs' (read
    first: no input is measured for another's certificate) and the artifact
    has the header of `model`, the input it repairs; else _Mismatch."""
    head = {key: value for key, value in model.items() if key not in ("images", "entries")}
    diff = (_first_difference(claimed.get("inputs_digest"), digest(inputs_obj), "inputs_digest")
            or _first_difference({key: artifact.get(key) for key in head}, head, "output"))
    try:
        if not diff:
            return parse(artifact)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        diff = "output", "malformed", f"{type(exc).__name__}: {exc}"
    raise _Mismatch(*diff)


def _recorded(steps, k0: int, K: int, bound: int, runs: List[int], conjugation: bool) -> bool:
    """Whether `steps` reads as a lifting repair's record: per p-part l in
    `runs` one run of steps by its method (averaging iff l = 0) whose levels
    rise strictly from above k0 to K, a step from level k spending k - l,
    then, in a graph, conjugation steps at K; each spends at least `bound`
    and less than K."""
    todo, low = list(runs), k0
    for s in steps if isinstance(steps, list) else [None]:
        if not (isinstance(s, dict) and len(s) == 3 and type(s.get("defect_val_after")) is int
                and type(s.get("distance_spent_val")) is int):
            return False
        level, spent, method = s["defect_val_after"], s["distance_spent_val"], s.get("method")
        if not bound <= spent < K:
            return False
        if todo and method == ("linear-solve" if todo[0] else "averaging") and \
                low < level <= K and spent == low - todo[0]:
            low, todo = (k0, todo[1:]) if level == K else (level, todo)
        elif todo or not conjugation or (method, level) != ("conjugation", K):
            return False
    return not todo


def _measure_rep(operation: str, inputs, artifact: dict, claimed: dict, cfg) -> Certificate:
    """The certificate that an ApproxRep repair's input and artifact support,
    all measured.  A lifting repair's p-part is that of C, the input's
    closure mod w^k0, the output's image order its closure's, at most |C|
    (an exact input is returned as it is); a graph's p-part is the claimed
    one if at most the largest p-part of the vertex images' closures mod
    w^k0, those the repair makes.  The claimed steps stay if `_recorded`."""
    rep, gog = inputs if operation == "repair-graph" else (inputs, None)
    obj = rep.to_json()
    out = _checked(claimed, obj if gog is None else {"rep": obj, "gog": gog.to_json()}, obj,
                   artifact, ApproxRep.from_json)
    before, after, dist = rep.defect(), out.defect(), rep.rep_dist(out)
    if operation == "repair-involution":
        return _certificate(operation, claimed["inputs_digest"], before, after, dist)
    K, k0, d = rep.ring.precision, before.valuation, dist.valuation
    if k0 < 1:
        raise DefectTooLarge("defect must be < 1")
    where = rep.presentation.generators.index
    closures = [] if k0 == K else [closure_of_matrices(
        [rep.images[where(g)].reduce(k0) for g in gens], cap=cfg.closure_cap)
        for gens in ([v.generators for v in gog.vertices if v.generators] if gog
                     else [rep.presentation.generators])]
    runs = [C.p_part for C in closures]
    said = claimed.get("ledger") if isinstance(claimed.get("ledger"), dict) else {}
    l, top, order = said.get("p_part"), max(runs, default=0), None
    if gog is None:
        l, cap = top, closures[0].order if closures else cfg.closure_cap
        try:
            order = closure_of_matrices(list(out.images), cap=cap).order
        except CapExceeded:
            order = f"more than {cap}" if closures else None
    elif not (type(l) is int and 0 <= l <= top):
        l = f"at most {top}"
    bound, steps = k0 - (l if type(l) is int else top), said.get("steps")
    return _certificate(operation, claimed["inputs_digest"], before, after, dist, {
        "initial_defect_val": k0, "p_part": l, "final_distance_bound_val": bound,
        "steps": steps if _recorded(steps, k0, K, bound, runs, gog is not None)
        else "not a record of this repair",
        "final_distance_val": d if d >= bound else f"{d}, beyond the bound",
        "image_order": order, "working_precision": K, "verified": True})


def _measure_split_section(inputs, artifact, claimed, cfg):
    obj, rep = inputs
    out = _checked(claimed, obj, rep.to_json(), artifact, FiltrationRep.from_json)
    return _split_certificate(claimed["inputs_digest"], rep, out)


def _measure_monomial(inputs, artifact, claimed, cfg):
    (p_obj, d_obj), (P, D) = inputs
    out = _checked(claimed, {"P": p_obj, "D": d_obj}, D.to_json(), artifact, UMatrix.from_json)
    return _monomial_certificate(claimed["inputs_digest"], P, D, out)


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
    "repair-finite-image": Operation(_load_one_rep, _run_finite_image,
                                     functools.partial(_measure_rep, "repair-finite-image")),
    "repair-graph": Operation(_load_graph, _run_graph,
                              functools.partial(_measure_rep, "repair-graph")),
    "repair-involution": Operation(_load_involution, _run_involution,
                                   functools.partial(_measure_rep, "repair-involution")),
    "repair-split-section": Operation(_load_split_section, _run_split_section,
                                      _measure_split_section),
    "monomial-commutant": Operation(_load_monomial, _run_monomial, _measure_monomial),
    "witness-badestimate": Operation(_load_cyclic, _run_badestimate),
    "witness-wreath": Operation(_load_cyclic, _run_wreath),
    "witness-commutator": Operation(_load_commutator, _run_commutator),
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
    """(key path, file value, measured value) of the first difference, in
    sorted key order, between JSON read from a file and a measured value
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
    dists = [NormValue.from_valuation(rep.ring, v.dist_valuation()) for v in rep.relator_values()]
    report = {
        "schema_version": 1,
        "kind": "defect_report",
        "defect_val": encode_val(norm_max(dists, rep.ring)),
        "per_relator_vals": [encode_val(d) for d in dists],
    }
    _write_json(args.out, report)
    return 0


def cmd_repair(args) -> int:
    if args.cap_closure is not None and args.mode not in CLOSURE_MODES:
        raise InputError(f"--cap-closure is read only in the {' and '.join(CLOSURE_MODES)} "
                         f"modes, not in {args.mode}")
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
        op = OPERATIONS[operation]
        if op.measure is None and (len(args.input) != 1 or args.output or args.gog):
            raise InputError("a witness certificate is verified against its "
                             "artifact alone: give it as the one --input")
        source = claimed["witness"]["params"] if op.measure is None else (
            args.input + ([args.gog] if args.gog else []))
    artifact_path = args.output if op.measure else args.input[0]
    expected = _load_json(artifact_path) if artifact_path else None
    try:
        if op.measure is None:  # a witness, re-derived from its parameters
            artifact, cert = _run(operation, source, cfg)
        else:
            with _malformed(operation):
                inputs = op.load(source)
            artifact = expected if artifact_path else op.run(inputs, cfg)[0]
            cert = op.measure(inputs, artifact, claimed, cfg)
        diff = _first_difference(claimed, cert.to_json(), "") or (
            op.measure is None and _first_difference(expected, artifact, "input"))
    except _Mismatch as exc:
        diff = exc.args
    if diff:
        where, said, got = diff
        print(f"FAIL {where}: file says {said!r}, measured {got!r}", file=sys.stderr)
        return 1
    print("PASS every claim of the certificate holds")
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


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _prime(text: str) -> int:
    """argparse type of every --p: a prime, else a usage error (exit 2)."""
    p = int(text)
    if not _is_prime(p):
        raise argparse.ArgumentTypeError(f"p must be a prime, got {p}")
    return p


def _add_common(sp, *caps: str, out: bool = True) -> None:
    """--out, and a --cap-* flag for each cap the subcommand reads."""
    if out:
        sp.add_argument("--out", default=None, help="output artifact path (stdout if omitted)")
    for cap in caps:
        dest = CAPS[cap]
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
    _add_common(sp, "closure_cap")

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
    _add_common(sp, "enum_cap", "dim_cap", "wreath_index_cap")

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
    _add_common(sp, "wreath_index_cap")

    # no abbreviations: "--out" would otherwise be read as "--output"
    sp = sub.add_parser("verify", allow_abbrev=False,
                        help="check a certificate: measure a repair's claims, "
                             "re-derive a witness")
    sp.add_argument("certificate")
    sp.add_argument("--input", required=True, action="append",
                    help="input file (repeat for monomial: P, then D); a witness's artifact")
    sp.add_argument("--output", default=None, help="artifact of a repair or monomial")
    sp.add_argument("--gog", default=None)
    _add_common(sp, *CAPS, out=False)  # verify writes no artifact, only its exit code

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
