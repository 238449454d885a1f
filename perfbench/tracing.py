"""Spans and counters recorded around the package's public functions.

`Tracer.install(pkg)` replaces functions at the names where callers look
them up (module globals and class attributes) with timing wrappers, and
`uninstall()` puts the originals back.  Coarse calls become spans (name,
start, end, parent, op id) kept in memory; high-frequency calls
(`UMatrix.__matmul__`, `UMatrix.inv`, `RingSpec.dot`, `RingSpec.inv`)
only bump counters, so the span tree stays small and self times stay
meaningful.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

# (span name, [(module attribute, binding name), ...]): one span name may
# cover several bindings of the same function object.
SPANS = [
    ("presentations.closure", [("homrepair", "closure_of_matrices"),
                               ("presentations", "closure_of_matrices")]),
    ("presentations.defect", [("presentations.ApproxRep", "defect")]),
    ("presentations.rep_dist", [("presentations.ApproxRep", "rep_dist")]),
    ("ultranorm_linalg.solve_linear", [("homrepair", "solve_linear")]),
    ("homrepair.repair_finite_image", [("homrepair", "repair_finite_image"),
                                       ("cli", "repair_finite_image")]),
    ("homrepair.graph_repair", [("homrepair", "graph_repair"), ("cli", "graph_repair")]),
    ("homrepair.align", [("homrepair", "align_homomorphisms")]),
    ("char2_involutions.involution_repair", [("cli", "involution_repair")]),
    ("witnesses.wreath_certificate", [("cli", "wreath_rep_defect_certificate")]),
    ("witnesses.commutator_oracle", [("cli", "commutator_witness_oracle")]),
    ("witnesses.hdist", [("cli", "hdist_gl1_cyclic")]),
    ("certificates.digest", [("cli", "digest"), ("certificates", "digest")]),
    ("cli.repair", [("cli", "cmd_repair")]),
    ("cli.witness", [("cli", "cmd_witness")]),
    ("cli.verify", [("cli", "cmd_verify")]),
]


def _resolve(pkg, path: str):
    obj = pkg
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.times: Dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.on_call(name, args)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            tracer.on_return(name, result)
            return result
        return wrapper

    def on_call(self, name: str, args) -> None:
        """Counts known from the arguments, kept also when the call raises."""
        c = self.counts
        c[name + ".calls"] += 1
        if name == "ultranorm_linalg.solve_linear":
            rows = args[0]
            nrows, ncols = len(rows), (len(rows[0]) if rows else 0)
            c[name + ".cells"] += nrows * ncols
            c[name + ".max_rows"] = max(c[name + ".max_rows"], nrows)
            c[name + ".max_cols"] = max(c[name + ".max_cols"], ncols)

    def on_return(self, name: str, result) -> None:
        """Counts read from a call's result."""
        c = self.counts
        if name == "presentations.closure":
            c["presentations.closure.elements"] += result.order
        elif name in ("homrepair.repair_finite_image", "homrepair.graph_repair"):
            for step in result[1].steps:
                c["homrepair.steps." + step.method.replace("-", "_")] += 1

    def counter(self, name: str, fn, mac: bool = False, timed: bool = False):
        counts, times = self.counts, self.times
        calls = name + ".calls"

        if timed:
            def wrapper(self_, *args):
                counts[calls] += 1
                start = time.perf_counter()
                try:
                    return fn(self_, *args)
                finally:
                    times[name] += time.perf_counter() - start
        elif mac:
            def wrapper(self_, *args):
                counts[calls] += 1
                counts["local_ring.mac_ops"] += self_.n ** 3
                return fn(self_, *args)
        else:
            def wrapper(self_, *args):
                counts[calls] += 1
                return fn(self_, *args)
        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, pkg) -> None:
        for name, bindings in SPANS:
            for owner_path, attr in bindings:
                owner = _resolve(pkg, owner_path)
                self._patch(owner, attr, self.span(name, owner.__dict__[attr]))
        umatrix = pkg.ultranorm_linalg.UMatrix
        ring = pkg.local_ring.RingSpec
        self._patch(umatrix, "__matmul__",
                    self.counter("ultranorm_linalg.matmul", umatrix.__matmul__, mac=True))
        self._patch(umatrix, "inv",
                    self.counter("ultranorm_linalg.inv", umatrix.inv, timed=True))
        self._patch(ring, "dot", self.counter("local_ring.dot", ring.dot))
        self._patch(ring, "inv", self.counter("local_ring.inv", ring.inv))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------------

    def durations(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Total and self seconds per span name."""
        total: Dict[str, float] = defaultdict(float)
        child: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
        return total, self_s

    def write_jsonl(self, path, pass_no: int) -> None:
        """Append this pass's spans, one JSON object per line."""
        with open(path, "a") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"pass": pass_no, "id": idx, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "op": op}) + "\n")
