"""Benchmark of the ultrastab repair, witness and verify entry points.

    python3 perfbench/run.py --workload pprime_repair --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client runs a closed loop in this
process: the next operation starts when the previous one returns.  A run
cycles through seeded rounds of operations until --seconds have passed
and the round in progress is complete.  The gated times are costs: a
call's seconds over those of a fixed reference computation timed next
to it, so that the machine's changing speed cancels out.  Every output
is checked against the plain-Python reference in reference.py.  The
slices that today's package gets wrong run once afterwards, untimed, as
a known-defect probe reported on lines of their own.  The last line of
standard output is one JSON object; the lines before it list every
metric with its unit.  With --trace 1 each operation runs untraced and
then traced, and the run reports per-layer metrics instead (see
DESIGN.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import corpus
import reference
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
MODULES = ["local_ring", "ultranorm_linalg", "presentations", "homrepair",
           "char2_involutions", "witnesses", "certificates", "cli"]
SETUP_REPEATS = 7
ROUNDS = 16             # distinct seeded rounds, made before set-up; a run cycles them
TAIL_BEYOND = 10

# A fixed pure-Python computation from reference.py, independent of the
# package: four products of 8x8 matrices over Z/3^40.  Timed before every
# timed call, it gives the machine's speed at that moment, and the gated
# metrics give op times in units of it (see "Loop and timing" in DESIGN.md).
UNIT_RING = reference.Ring("zp", 3, 40)
UNIT_MATRIX = [[UNIT_RING.random(random.Random(i * 8 + j)) for j in range(8)] for i in range(8)]
UNIT_WINDOW = 5         # units around a call whose median it is divided by


def reference_unit() -> float:
    """Seconds that the reference computation takes now.

    The garbage collector is off meanwhile, so that a collection of the
    package's objects never lands inside the unit.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        m = UNIT_MATRIX
        for _ in range(4):
            m = reference.matmul(UNIT_RING, m, UNIT_MATRIX)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Package:
    """The package modules, freshly imported."""

    def __init__(self):
        for name in list(sys.modules):
            if name == "ultrastab" or name.startswith("ultrastab."):
                del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"ultrastab.{name}"))


@dataclass
class Sample:
    seconds: float
    verify: bool
    unit: float          # seconds of reference_unit() just before the call, or 0


@dataclass
class Tally:
    samples: List[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def fail(self, shape: str, reason: str) -> None:
        self.failed += 1
        self.reasons[shape, reason] = self.reasons.get((shape, reason), 0) + 1


def write_inputs(ops: List[corpus.Op]) -> Dict[int, Path]:
    """One directory per cli op holding its input files; keyed by id(op)."""
    dirs = {}
    for i, op in enumerate(ops):
        if op.kind == "repair":
            continue
        d = dirs[id(op)] = WORK / f"op{i}"
        d.mkdir(parents=True, exist_ok=True)
        if op.rep is not None:
            (d / "rep.json").write_text(json.dumps(op.rep))
        if op.gog is not None:
            (d / "gog.json").write_text(json.dumps(op.gog))
    return dirs


class Runner:
    """Executes operations against one imported package and checks them."""

    def __init__(self, pkg: Package, ops: List[corpus.Op], dirs: Dict[int, Path]):
        self.pkg = pkg
        self.tracer: Optional[Tracer] = None
        self.calibrate = False  # time reference_unit() before each call
        self.inputs = dict(dirs)
        for op in ops:
            if op.kind == "repair":
                self.inputs[id(op)] = pkg.presentations.ApproxRep.from_json(op.rep)

    def _timed(self, tally: Tally, fn, label: str, verify: bool = False):
        tally.attempted += 1
        if self.tracer is not None:
            self.tracer.op += 1
            fn = self.tracer.span("op:" + label, fn)
        unit = reference_unit() if self.calibrate else 0.0
        start = time.perf_counter()
        try:
            return fn(), None
        except Exception as exc:  # the benchmark keeps running and records it
            return None, type(exc).__name__
        finally:
            tally.samples.append(Sample(time.perf_counter() - start, verify, unit))

    def _cli(self, tally: Tally, argv: List[str], label: str, verify: bool = False):
        def call():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    return self.pkg.cli.main(argv)
                except SystemExit as exc:
                    return exc.code
        return self._timed(tally, call, label, verify)

    def run(self, op: corpus.Op, tally: Tally) -> None:
        getattr(self, "_" + op.kind.replace("-", "_"))(op, tally)

    @staticmethod
    def _check(tally: Tally, shape: str, check) -> bool:
        """Run a reference check; a reason or an exception is a failure."""
        try:
            why = check()
        except Exception as exc:  # a malformed output must not stop the run
            why = f"check raised {type(exc).__name__}"
        if why:
            tally.fail(shape, why)
        return not why

    def _repair(self, op, tally):
        got, err = self._timed(tally, lambda: self.pkg.homrepair.repair_finite_image(
            self.inputs[id(op)]), op.shape)
        if err:
            return tally.fail(op.shape, f"raised {err}")
        self._check(tally, op.shape,
                    lambda: reference.check_repair(op.rep, got[0].to_json(), op.p_part))

    def _files(self, op):
        d = self.inputs[id(op)]
        out, cert = d / "out.json", d / "cert.json"
        for f in (out, cert):
            f.unlink(missing_ok=True)
        return d, str(out), str(cert)

    def _roundtrip(self, op, tally, argv, verify_argv, check, cert: str) -> None:
        code, err = self._cli(tally, argv, op.shape)
        if err or code != 0:
            return tally.fail(op.shape, f"raised {err}" if err else f"exit {code}")
        if not self._check(tally, op.shape, check):
            return
        if self.tracer is not None:
            self.tracer.counts["certificates.bytes"] += Path(cert).stat().st_size
        code, err = self._cli(tally, verify_argv, op.shape + " verify", verify=True)
        if err or code != 0:
            tally.fail(op.shape + " verify", f"raised {err}" if err else f"exit {code}")

    def _cli_repair(self, op, tally):
        d, out, cert = self._files(op)
        rep = str(d / "rep.json")
        gog = ["--gog", str(d / "gog.json")] if op.gog else []
        argv = ["repair", rep, "--mode", op.mode, "--out", out, "--cert", cert] + gog
        verify = ["verify", cert, "--input", rep, "--output", out] + gog

        def check():
            after = json.loads(Path(out).read_text())
            if op.mode == "involution":
                return reference.check_involution(op.rep, after)
            return reference.check_repair(op.rep, after, op.p_part)
        self._roundtrip(op, tally, argv, verify, check, cert)

    def _cli_witness(self, op, tally):
        d, out, cert = self._files(op)
        argv = op.argv + ["--out", out, "--cert", cert]
        verify = ["verify", cert, "--input", out]

        def check():
            obj = json.loads(Path(out).read_text())
            if "defect_val" in op.expect:
                R, names, rels, imgs = reference.load_rep(obj)
                got = reference.defect_val(R, names, rels, imgs)
                if got != op.expect["defect_val"]:
                    return f"defect level {got}, expected {op.expect['defect_val']}"
            if "commutator_val" in op.expect:
                R, a = reference.load_matrix(obj["A"])
                _, b = reference.load_matrix(obj["B"])
                got = reference.matval(R, reference.matsub(
                    R, reference.matmul(R, a, b), reference.matmul(R, b, a)))
                if got != op.expect["commutator_val"]:
                    return f"commutator level {got}, expected {op.expect['commutator_val']}"
            return ""
        self._roundtrip(op, tally, argv, verify, check, cert)

    def _cli_bad(self, op, tally):
        d, out, cert = self._files(op)
        code, err = self._cli(tally, ["repair", str(d / "rep.json"), "--mode", op.mode,
                                      "--out", out, "--cert", cert], op.shape)
        if err or code != 2:
            tally.fail(op.shape, f"raised {err}" if err else f"exit {code}, documented 2")


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def make_corpus(workload: str, seed: int):
    """The once-per-run ops, the rounds and the known-defect probe, from `seed`."""
    rng = random.Random(seed)
    make_round, make_once, make_defects = corpus.WORKLOADS[workload]
    once = make_once(rng)
    rounds = [make_round(rng) for _ in range(ROUNDS)]
    return once, rounds, make_defects(rng)


def setup(ops: List[corpus.Op], dirs: Dict[int, Path], warmup: corpus.Op):
    """Fresh import, loading of the repair inputs and one warm-up op, timed."""
    start = time.perf_counter()
    runner = Runner(Package(), ops, dirs)
    runner.run(warmup, Tally())
    return time.perf_counter() - start, runner


def run_round(runner: Runner, ops, tally: Tally) -> float:
    """Run ops in order; returns the seconds spent inside the package calls."""
    first = len(tally.samples)
    for op in ops:
        runner.run(op, tally)
    return sum(s.seconds for s in tally.samples[first:])


def percentile_tail(values: List[float]):
    """Highest order statistic with TAIL_BEYOND samples above it."""
    v = sorted(values)
    idx = max(0, len(v) - TAIL_BEYOND - 1)
    return v[idx], len(v) - 1 - idx, 100.0 * (idx + 1) / len(v)


def costs(samples: List[Sample]) -> List[float]:
    """Each call's seconds divided by the median reference unit around it."""
    units = [s.unit for s in samples]
    half = UNIT_WINDOW // 2
    return [s.seconds / statistics.median(units[max(0, i - half):i + half + 1])
            for i, s in enumerate(samples)]


def end_to_end(workload: str, tally: Tally, setup_s: float) -> dict:
    """Prints every figure of a timed run; returns the gated ones."""
    ok = tally.attempted - tally.failed
    seconds = [s.seconds for s in tally.samples]
    cost = costs(tally.samples)
    unit_ms = 1000 * statistics.median(s.unit for s in tally.samples)
    n = len(cost)
    tail, beyond, pct = percentile_tail(cost)
    tail_s = percentile_tail(seconds)[0]
    throughput = 1000 * ok / sum(cost)
    print(f"reference unit (ref) = {unit_ms:.4f} ms, median over {n} calls")
    print(f"op_cost.p50 = {statistics.median(cost):.4f} ref  ({n} samples)"
          f"   [op_s.p50 = {statistics.median(seconds):.6f} s]")
    print(f"op_cost.tail = {tail:.4f} ref  (p{pct:.1f}, {beyond} of {n} samples beyond)"
          f"   [op_s.tail = {tail_s:.6f} s]")
    print(f"ops_per_kref = {throughput:.4f} 1/kref  ({ok} correct ops in {sum(cost):.1f} ref)"
          f"   [ops_per_s = {ok / sum(seconds):.4f} 1/s]")
    print(f"setup_s = {setup_s:.4f} s  (median of {SETUP_REPEATS})")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb = {rss:.2f} MB")
    if workload == "certify_roundtrip":
        verify = [c for c, s in zip(cost, tally.samples) if s.verify]
        verify_s = [s.seconds for s in tally.samples if s.verify]
        print(f"verify_cost.p50 = {statistics.median(verify):.4f} ref  ({len(verify)} samples)"
              f"   [verify_s.p50 = {statistics.median(verify_s):.6f} s]")
    return {
        "op_cost.p50": {"value": statistics.median(cost), "unit": "ref"},
        "op_cost.tail": {"value": tail, "unit": "ref"},
        "ops_per_kref": {"value": throughput, "unit": "1/kref"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


COUNTS = [
    "local_ring.mac_ops", "local_ring.dot.calls", "local_ring.inv.calls",
    "ultranorm_linalg.matmul.calls", "ultranorm_linalg.inv.calls",
    "ultranorm_linalg.solve_linear.calls", "ultranorm_linalg.solve_linear.cells",
    "ultranorm_linalg.solve_linear.max_rows", "ultranorm_linalg.solve_linear.max_cols",
    "presentations.closure.calls", "presentations.closure.elements",
    "homrepair.steps.averaging", "homrepair.steps.linear_solve",
    "homrepair.steps.conjugation", "certificates.bytes",
]
# Span totals in seconds, for layers that every workload runs.
SECONDS = {
    "ultranorm_linalg.solve_linear.s": "ultranorm_linalg.solve_linear",
    "presentations.closure.s": "presentations.closure",
    "presentations.defect.s": "presentations.defect",
    "presentations.rep_dist.s": "presentations.rep_dist",
}
SELF_SECONDS = {"homrepair.repair_finite_image.self_s": "homrepair.repair_finite_image"}
# Layers that some workload bypasses, as a share of the time spent in calls,
# so that a bypassed layer reads 0 % rather than a constant zero time.
SHARES = {
    "homrepair.align.pct": "homrepair.align",
    "char2_involutions.involution_repair.pct": "char2_involutions.involution_repair",
    "witnesses.wreath_certificate.pct": "witnesses.wreath_certificate",
    "witnesses.commutator_oracle.pct": "witnesses.commutator_oracle",
    "witnesses.hdist.pct": "witnesses.hdist",
    "certificates.digest.pct": "certificates.digest",
}
SELF_SHARES = {
    "homrepair.graph_repair.self_pct": "homrepair.graph_repair",
    "cli.repair.self_pct": "cli.repair",
    "cli.witness.self_pct": "cli.witness",
    "cli.verify.self_pct": "cli.verify",
}


def per_layer(tracer: Tracer, busy: float) -> Dict[str, dict]:
    """Per-layer metrics of one traced pass."""
    c = tracer.counts
    total, self_s = tracer.durations()
    m = {name: {"value": c[name], "unit": "count"} for name in COUNTS}
    m["ultranorm_linalg.inv.s"] = {"value": tracer.times["ultranorm_linalg.inv"], "unit": "s"}
    m.update({k: {"value": total[v], "unit": "s"} for k, v in SECONDS.items()})
    m.update({k: {"value": self_s[v], "unit": "s"} for k, v in SELF_SECONDS.items()})
    m.update({k: {"value": 100.0 * total[v] / busy, "unit": "%"} for k, v in SHARES.items()})
    m.update({k: {"value": 100.0 * self_s[v] / busy, "unit": "%"}
              for k, v in SELF_SHARES.items()})
    lifting = c["homrepair.steps.averaging"] + c["homrepair.steps.linear_solve"]
    m["homrepair.averaging_ratio"] = {
        "value": c["homrepair.steps.averaging"] / lifting if lifting else 0.0,
        "unit": "ratio"}
    return m


def traced_run(args, runner: Runner, ops: List[corpus.Op]):
    """Passes over the same ops, each op run once untraced and once traced.

    Running the two copies back to back, in alternating order, keeps
    machine-speed drift out of trace.overhead_ratio.  A first, uncounted
    pass fills the package's caches (the roots-of-unity table of the
    witnesses), so that every pass does the same work.  Counts come from
    each pass and must repeat exactly; times are medians over the passes.
    """
    run_round(runner, ops, Tally())
    tally = Tally()
    plain_s = traced_s = 0.0
    passes = []
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    spans.unlink(missing_ok=True)
    start = time.perf_counter()
    while True:
        tracer = Tracer()
        busy = 0.0
        for i, op in enumerate(ops):
            if i % 2:
                plain_s += run_round(runner, [op], tally)
            runner.tracer = tracer
            tracer.install(runner.pkg)
            try:
                busy += run_round(runner, [op], tally)
            finally:
                tracer.uninstall()
                runner.tracer = None
            if i % 2 == 0:
                plain_s += run_round(runner, [op], tally)
        traced_s += busy
        tracer.write_jsonl(spans, len(passes))
        passes.append(per_layer(tracer, busy))
        if time.perf_counter() - start >= args.seconds:
            break
    first = passes[0]
    repeat = all(p[name] == first[name] for p in passes for name in COUNTS)
    metrics = {name: {"value": statistics.median_low(p[name]["value"] for p in passes),
                      "unit": first[name]["unit"]} for name in first}
    metrics["trace.overhead_ratio"] = {"value": plain_s / traced_s, "unit": "ratio"}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}"
              + ("  (computed: sum of n^3 over matmuls)" if name == "local_ring.mac_ops" else ""))
    print(f"exact counts repeat over {len(passes)} traced passes: {repeat}")
    print(f"spans: {spans.relative_to(ROOT)}")
    return tally, metrics, repeat


def timed_run(seconds: float, runner: Runner, once, rounds) -> Tally:
    """The once-per-run ops, then whole rounds until `seconds` have passed."""
    tally = Tally()
    runner.calibrate = True
    start = time.perf_counter()
    run_round(runner, once, tally)
    for r in itertools.count():
        run_round(runner, rounds[r % len(rounds)], tally)
        if time.perf_counter() - start >= seconds:
            return tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "ultrastab" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    once, rounds, defects = make_corpus(args.workload, args.seed)
    ops = once + [op for ops in rounds for op in ops] + defects
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        dirs = write_inputs(ops)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            runner = None   # only one set-up is alive at a time
            seconds, runner = setup(ops, dirs, rounds[0][0])
            setup_times.append(seconds)
        if args.trace:
            tally, metrics, repeat = traced_run(args, runner, once + rounds[0])
        else:
            tally = timed_run(args.seconds, runner, once, rounds)
            metrics = end_to_end(args.workload, tally, statistics.median(setup_times))
            repeat = True
        runner.calibrate = False
        probe = Tally()
        run_round(runner, defects, probe)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"fail_ratio = {tally.failed / tally.attempted:.4f}  "
          f"({tally.failed} of {tally.attempted} timed ops)")
    unexpected = report_failures(tally, set())
    if probe.attempted:
        print(f"known_defects.fail_ratio = {probe.failed / probe.attempted:.4f}  "
              f"({probe.failed} of {probe.attempted} probe ops, untimed)")
    unexpected += report_failures(probe, corpus.KNOWN_DEFECTS[args.workload])
    print(json.dumps({"correct": unexpected == 0 and repeat, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def report_failures(tally: Tally, known) -> int:
    """Prints each failure reason; returns the number of failures not in `known`."""
    unexpected = 0
    for (shape, reason), count in sorted(tally.reasons.items()):
        listed = (shape, reason) in known
        unexpected += 0 if listed else count
        print(f"failed {count}x  {shape}: {reason}"
              + ("  (known defect)" if listed else "  (UNEXPECTED)"))
    return unexpected


if __name__ == "__main__":
    sys.exit(main())
