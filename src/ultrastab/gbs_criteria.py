"""Combinatorial stability criteria for generalized Baumslag-Solitar graphs.

A GBS graph is a finite connected graph with nonzero integer weights
w_-, w_+ on each directed edge and the reversal convention
w_+-(reversed e) = w_-+(e).  Two sufficient criteria are decided, each
with re-checkable witnesses: the coprime-cycle criterion (a family of
cycles with all negative weights coprime to p and some positive weight
divisible by p, reaching every vertex along p-coprime paths), and the
valuation-mismatch criterion (a cycle whose total positive and negative
p-valuations differ).  Criteria are sufficient only: a negative report
carries no instability verdict.

One graph search serves everything: `_bfs_tree`, a BFS from one vertex
along a list of orientations, O(V + E) per call, with `_tree_path` walking
a vertex back to its start.  The coprime-cycle criterion runs one BFS per
candidate edge e (its cycle is e plus the tree path from e.dst back to
e.src) and one per cycle vertex (each vertex's access path comes from the
first of those trees that reaches it).  The valuation-mismatch criterion
and the connectivity check each run one BFS from the first vertex over
both orientations: the potential is filled in discovery order, and the
witness cycle is an edge off the potential closed through the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


class GBSError(ValueError):
    pass


class CriterionNotMet(RuntimeError):
    pass


def _nu(p: int, m: int) -> int:
    if m == 0:
        raise GBSError("weights must be nonzero")
    m = abs(m)
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


@dataclass(frozen=True)
class DirectedEdge:
    """One orientation of a geometric edge; edge_id pairs it with its reverse."""

    src: str
    dst: str
    w_minus: int
    w_plus: int
    edge_id: int
    reversed_: bool

    def reverse(self) -> "DirectedEdge":
        return DirectedEdge(self.dst, self.src, self.w_plus, self.w_minus,
                            self.edge_id, not self.reversed_)


@dataclass(frozen=True)
class GBSGraph:
    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, int, int], ...]  # (src, dst, w_minus, w_plus)

    def __post_init__(self):
        if not self.vertices:
            raise GBSError("graph needs at least one vertex")
        if not all(isinstance(v, str) for v in self.vertices):
            raise GBSError("vertex names must be strings")
        names = set()
        for v in self.vertices:
            if v in names:
                raise GBSError(f"vertex {v!r} is listed more than once")
            names.add(v)
        for src, dst, wm, wp in self.edges:
            if src not in names or dst not in names:
                raise GBSError("edge endpoint is not a vertex")
            if type(wm) is not int or type(wp) is not int:
                raise GBSError("weights must be integers")
            if wm == 0 or wp == 0:
                raise GBSError("weights must be nonzero")
        if len(_bfs_tree(self.vertices[0], self.directed_edges())) < len(self.vertices):
            raise GBSError("graph must be connected")

    def directed_edges(self) -> List[DirectedEdge]:
        """Both orientations of every geometric edge."""
        out = []
        for eid, (src, dst, wm, wp) in enumerate(self.edges):
            fwd = DirectedEdge(src, dst, wm, wp, eid, False)
            out.append(fwd)
            out.append(fwd.reverse())
        return out

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "gbs_graph",
            "vertices": list(self.vertices),
            "edges": [{"from": e[0], "to": e[1], "w_minus": e[2], "w_plus": e[3]}
                      for e in self.edges],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GBSGraph":
        if not isinstance(obj["vertices"], list):
            raise GBSError("vertices must be a list of vertex names")
        return cls(tuple(obj["vertices"]),
                   tuple((e["from"], e["to"], e["w_minus"], e["w_plus"]) for e in obj["edges"]))


def _edge_token(e: DirectedEdge) -> dict:
    return {"from": e.src, "to": e.dst, "w_minus": e.w_minus, "w_plus": e.w_plus,
            "edge_id": e.edge_id, "reversed": e.reversed_}


@dataclass
class PifreePart:
    met: bool
    cycles: List[List[dict]] = field(default_factory=list)
    access_paths: Dict[str, List[dict]] = field(default_factory=dict)


@dataclass
class VpfreePart:
    met: bool
    cycle: List[dict] = field(default_factory=list)
    valuation_difference: int = 0


@dataclass
class CriterionReport:
    p: int
    pifree: PifreePart
    vpfree: VpfreePart

    @property
    def estimate_class(self) -> str:
        if self.pifree.met:
            return "optimal"
        if self.vpfree.met:
            return "linear"
        return "none"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "pifree_met": self.pifree.met,
            "pifree_cycles": self.pifree.cycles,
            "pifree_access_paths": self.pifree.access_paths,
            "vpfree_met": self.vpfree.met,
            "vpfree_cycle": self.vpfree.cycle,
            "vpfree_valuation_difference": self.vpfree.valuation_difference,
            "estimate_class": self.estimate_class,
        }


def _bfs_tree(start: str, edges: Sequence[DirectedEdge]) -> Dict[str, Optional[DirectedEdge]]:
    """Breadth-first search from start along edges: every vertex it reaches,
    in discovery order, mapped to the edge that reached it (start to None)."""
    adj: Dict[str, List[DirectedEdge]] = {}
    for e in edges:
        adj.setdefault(e.src, []).append(e)
    tree: Dict[str, Optional[DirectedEdge]] = {start: None}
    order = [start]
    for v in order:
        for e in adj.get(v, ()):
            if e.dst not in tree:
                tree[e.dst] = e
                order.append(e.dst)
    return tree


def _tree_path(tree: Dict[str, Optional[DirectedEdge]], v: str) -> List[DirectedEdge]:
    """The path of a BFS tree from its start to v."""
    path: List[DirectedEdge] = []
    while tree[v] is not None:
        path.append(tree[v])
        v = tree[v].src
    return path[::-1]


def check_pifree_criterion(g: GBSGraph, p: int) -> CriterionReport:
    """Decide the coprime-cycle criterion at p, with witnesses.

    Work in the subgraph H of orientations whose negative weight is coprime
    to p.  An edge e of H with p | w_+ lies on a qualifying cycle exactly
    when H has a path from e.dst back to e.src; the BFS tree of H from e.dst
    gives the shortest one.  Every vertex then takes its access path, along
    p-coprime positive weights, from the first cycle vertex whose BFS tree
    reaches it.
    """
    directed = g.directed_edges()
    h_edges = [e for e in directed if _nu(p, e.w_minus) == 0]
    cycles: List[List[DirectedEdge]] = []
    cycle_vertices: List[str] = []
    for e in h_edges:
        if _nu(p, e.w_plus) > 0:
            tree = _bfs_tree(e.dst, h_edges)
            if e.src in tree:
                cycles.append([e] + _tree_path(tree, e.src))
                cycle_vertices += [f.src for f in cycles[-1] if f.src not in cycle_vertices]
    access_edges = [e for e in directed if _nu(p, e.w_plus) == 0]
    trees = [_bfs_tree(x, access_edges) for x in cycle_vertices]
    reached = {v: next((t for t in trees if v in t), None) for v in g.vertices}
    part = PifreePart(met=False)
    if cycles and all(t is not None for t in reached.values()):
        part = PifreePart(
            met=True,
            cycles=[[_edge_token(e) for e in c] for c in cycles],
            access_paths={v: [_edge_token(e) for e in _tree_path(t, v)]
                          for v, t in reached.items()},
        )
    return CriterionReport(p=p, pifree=part, vpfree=check_vpfree_part(g, p))


def check_vpfree_part(g: GBSGraph, p: int) -> VpfreePart:
    """Decide whether some cycle has differing positive/negative p-valuations.

    Give each orientation the potential difference d(e) = nu_p(w_+) -
    nu_p(w_-); a qualifying cycle exists exactly when d is not the
    coboundary of a vertex potential, which the BFS tree from the first
    vertex detects.  The witness is an edge e off the potential, then the
    tree path from e.dst back to the root, then the tree path to e.src.
    """
    directed = g.directed_edges()
    tree = _bfs_tree(g.vertices[0], directed)
    pot: Dict[str, int] = {}
    for v, e in tree.items():
        pot[v] = 0 if e is None else pot[e.src] + _nu(p, e.w_plus) - _nu(p, e.w_minus)
    for e in directed:
        if pot[e.dst] - pot[e.src] != _nu(p, e.w_plus) - _nu(p, e.w_minus):
            cycle = ([e] + [f.reverse() for f in reversed(_tree_path(tree, e.dst))]
                     + _tree_path(tree, e.src))
            total = sum(_nu(p, f.w_plus) - _nu(p, f.w_minus) for f in cycle)
            if total == 0:
                raise GBSError("witness cycle verification failed")
            return VpfreePart(met=True, cycle=[_edge_token(f) for f in cycle],
                              valuation_difference=total)
    return VpfreePart(met=False)


def gbs_vertex_order_bound(g: GBSGraph, p: int,
                           report: CriterionReport) -> Dict[str, int]:
    """Per-vertex bound l on the p-part of generator orders in finite quotients.

    Cycle vertices get min(nu_p over the two cycle weight products); bounds
    propagate along edges by l_dst <= l_src + nu_p(w_+).  The coprime-cycle
    criterion pins its cycle vertices at zero.
    """
    INF = 10 ** 9
    bound: Dict[str, int] = {v: INF for v in g.vertices}
    if report.pifree.met:
        for cyc in report.pifree.cycles:
            for tok in cyc:
                bound[tok["from"]] = 0
                bound[tok["to"]] = 0
    elif report.vpfree.met:
        wm = 1
        wp = 1
        for tok in report.vpfree.cycle:
            wm *= tok["w_minus"]
            wp *= tok["w_plus"]
        base = min(_nu(p, wm), _nu(p, wp))
        for tok in report.vpfree.cycle:
            bound[tok["from"]] = min(bound[tok["from"]], base)
            bound[tok["to"]] = min(bound[tok["to"]], base)
    else:
        raise CriterionNotMet("no criterion witness to propagate from")
    directed = g.directed_edges()
    changed = True
    while changed:
        changed = False
        for e in directed:
            cand = bound[e.src] + _nu(p, e.w_plus)
            if cand < bound[e.dst]:
                bound[e.dst] = cand
                changed = True
    if any(b >= INF for b in bound.values()):
        raise CriterionNotMet("some vertex is unreachable from the witnesses")
    return bound
