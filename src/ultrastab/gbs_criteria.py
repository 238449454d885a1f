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
        names = set(self.vertices)
        for src, dst, wm, wp in self.edges:
            if src not in names or dst not in names:
                raise GBSError("edge endpoint is not a vertex")
            if wm == 0 or wp == 0:
                raise GBSError("weights must be nonzero")
        if not self._connected():
            raise GBSError("graph must be connected")

    def _connected(self) -> bool:
        if not self.edges and len(self.vertices) == 1:
            return True
        adj: Dict[str, List[str]] = {v: [] for v in self.vertices}
        for src, dst, _, _ in self.edges:
            adj[src].append(dst)
            adj[dst].append(src)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

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
        return cls(tuple(obj["vertices"]),
                   tuple((e["from"], e["to"], int(e["w_minus"]), int(e["w_plus"]))
                         for e in obj["edges"]))


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


def _tarjan_sccs(vertices: Sequence[str], edges: Sequence[DirectedEdge]) -> Dict[str, int]:
    adj: Dict[str, List[DirectedEdge]] = {v: [] for v in vertices}
    for e in edges:
        adj[e.src].append(e)
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    comp: Dict[str, int] = {}
    stack: List[str] = []
    counter = [0]
    comp_count = [0]

    def strongconnect(v: str):
        work = [(v, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for k in range(pi, len(adj[node])):
                w = adj[node][k].dst
                if w not in index:
                    work[-1] = (node, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                elif on_stack.get(w):
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = comp_count[0]
                    if w == node:
                        break
                comp_count[0] += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for v in vertices:
        if v not in index:
            strongconnect(v)
    return comp


def _bfs_path(start: str, goal: str, edges: Sequence[DirectedEdge]) -> Optional[List[DirectedEdge]]:
    if start == goal:
        return []
    adj: Dict[str, List[DirectedEdge]] = {}
    for e in edges:
        adj.setdefault(e.src, []).append(e)
    prev: Dict[str, DirectedEdge] = {}
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop(0)
        for e in adj.get(v, []):
            if e.dst not in seen:
                seen.add(e.dst)
                prev[e.dst] = e
                if e.dst == goal:
                    path = []
                    cur = goal
                    while cur != start:
                        path.append(prev[cur])
                        cur = prev[cur].src
                    return list(reversed(path))
                queue.append(e.dst)
    return None


def check_pifree_criterion(g: GBSGraph, p: int) -> CriterionReport:
    """Decide the coprime-cycle criterion at p, with witnesses.

    Work in the subgraph H of orientations whose negative weight is coprime
    to p; a qualifying cycle through an edge with p | w_+ exists exactly
    when that edge is internal to a strongly connected component of H.
    Vertex access is then checked in the subgraph of p-coprime positive
    weights.
    """
    directed = g.directed_edges()
    h_edges = [e for e in directed if _nu(p, e.w_minus) == 0]
    comp = _tarjan_sccs(g.vertices, h_edges)
    cycles: List[List[DirectedEdge]] = []
    cycle_vertices: List[str] = []
    for e in h_edges:
        if _nu(p, e.w_plus) > 0 and comp[e.src] == comp[e.dst]:
            inside = [f for f in h_edges if comp[f.src] == comp[e.src]
                      and comp[f.dst] == comp[e.src]]
            back = _bfs_path(e.dst, e.src, inside)
            if back is None:
                continue
            cycle = [e] + back
            cycles.append(cycle)
            for f in cycle:
                if f.src not in cycle_vertices:
                    cycle_vertices.append(f.src)
    part = PifreePart(met=False)
    if cycles:
        access_edges = [e for e in directed if _nu(p, e.w_plus) == 0]
        paths: Dict[str, List[DirectedEdge]] = {}
        all_reached = True
        for v in g.vertices:
            found = None
            for x in cycle_vertices:
                path = _bfs_path(x, v, access_edges)
                if path is not None:
                    found = path
                    break
            if found is None:
                all_reached = False
                break
            paths[v] = found
        if all_reached:
            part = PifreePart(
                met=True,
                cycles=[[_edge_token(e) for e in c] for c in cycles],
                access_paths={v: [_edge_token(e) for e in path]
                              for v, path in paths.items()},
            )
    vp = check_vpfree_part(g, p)
    return CriterionReport(p=p, pifree=part, vpfree=vp)


def check_vpfree_part(g: GBSGraph, p: int) -> VpfreePart:
    """Decide whether some cycle has differing positive/negative p-valuations.

    Give each orientation the potential difference d(e) = nu_p(w_+) -
    nu_p(w_-); a qualifying cycle exists exactly when d is not the
    coboundary of a vertex potential, which a spanning tree detects.
    """
    directed = g.directed_edges()
    pot: Dict[str, int] = {g.vertices[0]: 0}
    tree_parent: Dict[str, DirectedEdge] = {}
    queue = [g.vertices[0]]
    adj: Dict[str, List[DirectedEdge]] = {}
    for e in directed:
        adj.setdefault(e.src, []).append(e)
    while queue:
        v = queue.pop(0)
        for e in adj.get(v, []):
            if e.dst not in pot:
                pot[e.dst] = pot[v] + _nu(p, e.w_plus) - _nu(p, e.w_minus)
                tree_parent[e.dst] = e
                queue.append(e.dst)
    for e in directed:
        d = _nu(p, e.w_plus) - _nu(p, e.w_minus)
        if pot[e.dst] - pot[e.src] != d:
            # witness cycle: e followed by the tree path dst -> src
            cycle = [e]
            cur = e.dst
            root_path_dst: List[DirectedEdge] = []
            while cur in tree_parent:
                root_path_dst.append(tree_parent[cur])
                cur = tree_parent[cur].src
            cur = e.src
            root_path_src: List[DirectedEdge] = []
            while cur in tree_parent:
                root_path_src.append(tree_parent[cur])
                cur = tree_parent[cur].src
            # dst -> root (reversed edges), then root -> src (forward)
            cycle += [f.reverse() for f in root_path_dst]
            cycle += list(reversed(root_path_src))
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
