import hashlib
import json
import random

import pytest

from ultrastab.cli import main
from ultrastab.gbs_criteria import (
    CriterionNotMet,
    GBSError,
    GBSGraph,
    check_pifree_criterion,
    gbs_vertex_order_bound,
)

from conftest import bs_graph

# the graphs past BS(m, n) of test_potential_theory_matches_enumeration
SMALL_GRAPHS = {
    "ab": GBSGraph(("a", "b"), (("a", "b", 2, 3),)),
    "ab2": GBSGraph(("a", "b"), (("a", "b", 2, 3), ("b", "a", 4, 5))),
    "abc": GBSGraph(("a", "b", "c"),
                    (("a", "b", 2, 1), ("b", "c", 6, 2), ("c", "a", 1, 9))),
    "a2": GBSGraph(("a",), (("a", "a", 8, 2), ("a", "a", 3, 12))),
}


def _nu(p, m):
    """The p-adic valuation of a nonzero integer."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def enumerate_cycles_valuation_check(g, p, max_len=8):
    """Reference decision by explicit cycle enumeration (small graphs only):
    some closed walk of at most max_len directed edges has a nonzero total
    of nu_p(w_+) - nu_p(w_-)."""
    adj = {}
    for e in g.directed_edges():
        adj.setdefault(e.src, []).append(e)

    def walk(v, start, total, depth):
        if depth > 0 and v == start and total != 0:
            return True
        if depth >= max_len:
            return False
        return any(walk(e.dst, start, total + _nu(p, e.w_plus) - _nu(p, e.w_minus), depth + 1)
                   for e in adj.get(v, []))

    return any(walk(v, v, 0, 0) for v in g.vertices)


def enumerate_cycles_pifree_check(g, p):
    """Reference decision of the coprime-cycle criterion by explicit
    enumeration (small graphs only): the closed walks without a repeated
    vertex whose negative weights are all prime to p and which pass an edge
    with p | w_+, and whether walks along p-coprime positive weights reach
    every vertex from the vertices of those closed walks."""
    directed = g.directed_edges()

    def walks(v, allowed, seen):
        # every walk from v along allowed edges that repeats no vertex
        yield []
        for e in directed:
            if e.src == v and allowed(e) and e.dst not in seen:
                for rest in walks(e.dst, allowed, seen | {e.dst}):
                    yield [e] + rest

    def in_h(e):
        return e.w_minus % p != 0

    on_cycles = set()
    for e in directed:
        if in_h(e) and e.w_plus % p == 0:
            for back in walks(e.dst, in_h, {e.dst}):
                if (back[-1].dst if back else e.dst) == e.src:
                    on_cycles |= {f.src for f in [e] + back}
    def coprime_plus(e):
        return e.w_plus % p != 0

    reached = set(on_cycles)
    for v in on_cycles:
        reached |= {walk[-1].dst for walk in walks(v, coprime_plus, {v}) if walk}
    return bool(on_cycles) and reached == set(g.vertices)


def assert_witnesses_are_walks(g, p, report):
    """Every reported cycle is a closed walk of the graph's orientations that
    meets its criterion, and every access path is a walk along p-coprime
    positive weights from a cycle vertex to its vertex."""
    tokens = {(e.edge_id, e.reversed_): e for e in g.directed_edges()}

    def walk_ends(walk):
        for tok in walk:
            e = tokens[(tok["edge_id"], tok["reversed"])]
            assert (tok["from"], tok["to"], tok["w_minus"], tok["w_plus"]) == (
                e.src, e.dst, e.w_minus, e.w_plus)
        for a, b in zip(walk, walk[1:]):
            assert a["to"] == b["from"]
        return walk[0]["from"], walk[-1]["to"]

    on_cycles = set()
    for cyc in report.pifree.cycles:
        start, end = walk_ends(cyc)
        assert start == end
        assert all(tok["w_minus"] % p != 0 for tok in cyc)
        assert cyc[0]["w_plus"] % p == 0
        on_cycles |= {tok["from"] for tok in cyc}
    if report.pifree.met:
        assert set(report.pifree.access_paths) == set(g.vertices)
    for v, path in report.pifree.access_paths.items():
        assert all(tok["w_plus"] % p != 0 for tok in path)
        if path:
            start, end = walk_ends(path)
            assert start in on_cycles and end == v
        else:
            assert v in on_cycles
    if report.vpfree.met:
        start, end = walk_ends(report.vpfree.cycle)
        assert start == end
        assert report.vpfree.valuation_difference == sum(
            _nu(p, tok["w_plus"]) - _nu(p, tok["w_minus"]) for tok in report.vpfree.cycle) != 0


def random_graph(rng, max_vertices=4):
    """A random GBS graph with weights in +-{1..12}, or None if it is not
    connected."""
    vertices = tuple("abcdef"[:rng.randint(1, max_vertices)])
    edges = tuple((rng.choice(vertices), rng.choice(vertices),
                   rng.choice([-1, 1]) * rng.randint(1, 12), rng.choice([-1, 1]) * rng.randint(1, 12))
                  for _ in range(rng.randint(len(vertices) - 1, len(vertices) + 2)))
    try:
        return GBSGraph(vertices, edges)
    except GBSError:
        return None


def test_graph_validation():
    with pytest.raises(GBSError):
        GBSGraph(("a", "b"), ())  # disconnected
    with pytest.raises(GBSError):
        GBSGraph(("a",), (("a", "a", 0, 2),))  # zero weight
    with pytest.raises(GBSError):
        GBSGraph(("a",), (("a", "b", 1, 2),))  # unknown vertex


def test_graph_rejects_repeated_vertex():
    # a repeated name is reported as such, before the connectivity check
    # that it would otherwise fail
    for vertices, edges in [(("v", "v"), (("v", "v", 3, 2),)),
                            (("a", "b", "a"), (("a", "b", 1, 2),))]:
        with pytest.raises(GBSError) as info:
            GBSGraph(vertices, edges)
        assert repr(vertices[-1]) in str(info.value)
        assert "connected" not in str(info.value)


def test_bs_classification_table():
    table = {
        (2, 3, 2): (True, True),
        (2, 3, 3): (True, True),
        (2, 3, 5): (False, False),
        (4, 6, 2): (False, True),
        (2, 2, 2): (False, False),
        (3, 6, 3): (False, False),
    }
    for (m, n, p), (want_pi, want_vp) in table.items():
        r = check_pifree_criterion(bs_graph(m, n), p)
        assert r.pifree.met == want_pi, (m, n, p)
        assert r.vpfree.met == want_vp, (m, n, p)
        expected_class = "optimal" if want_pi else ("linear" if want_vp else "none")
        assert r.estimate_class == expected_class


def test_witness_cycles_verify():
    g = bs_graph(2, 3)
    r = check_pifree_criterion(g, 3)
    assert r.pifree.met
    for cyc in r.pifree.cycles:
        assert cyc[0]["from"] == cyc[-1]["to"]  # closed
        assert all(tok["w_minus"] % 3 != 0 for tok in cyc)
        assert any(tok["w_plus"] % 3 == 0 for tok in cyc)
    r2 = check_pifree_criterion(bs_graph(4, 6), 2)
    assert r2.vpfree.met and r2.vpfree.valuation_difference != 0


def test_potential_theory_matches_enumeration():
    # exhaustive cross-check on all small multigraphs
    graphs = [
        bs_graph(2, 3),
        bs_graph(4, 6),
        bs_graph(2, 2),
        GBSGraph(("a", "b"), (("a", "b", 2, 3),)),
        GBSGraph(("a", "b"), (("a", "b", 2, 3), ("b", "a", 4, 5))),
        GBSGraph(("a", "b", "c"),
                 (("a", "b", 2, 1), ("b", "c", 6, 2), ("c", "a", 1, 9))),
        GBSGraph(("a",), (("a", "a", 8, 2), ("a", "a", 3, 12))),
    ]
    for g in graphs:
        for p in (2, 3, 5):
            want = enumerate_cycles_valuation_check(g, p)
            got = check_pifree_criterion(g, p).vpfree.met
            assert got == want, (g, p)


def test_vertex_order_bounds():
    g = bs_graph(2, 3)
    r = check_pifree_criterion(g, 3)
    assert gbs_vertex_order_bound(g, 3, r) == {"v": 0}
    g2 = bs_graph(4, 6)
    r2 = check_pifree_criterion(g2, 2)
    assert gbs_vertex_order_bound(g2, 2, r2) == {"v": 1}


def test_path_propagation():
    # vertex reached through an edge with nu_p(w_+) = 2 inherits l_a + 2
    g = GBSGraph(("a", "b"), (("a", "a", 3, 6), ("a", "b", 1, 4)))
    r = check_pifree_criterion(g, 2)
    assert r.vpfree.met
    b = gbs_vertex_order_bound(g, 2, r)
    assert b["a"] == 0          # min(nu_2(3), nu_2(6)) on the witness loop
    assert b["b"] <= b["a"] + 2


def test_criterion_not_met():
    g = bs_graph(2, 2)
    r = check_pifree_criterion(g, 2)
    with pytest.raises(CriterionNotMet):
        gbs_vertex_order_bound(g, 2, r)


def test_trees_have_no_cycles():
    g = GBSGraph(("a", "b"), (("a", "b", 2, 4),))
    for p in (2, 3):
        r = check_pifree_criterion(g, p)
        assert not r.vpfree.met
        assert not r.pifree.met


def test_json_roundtrip():
    g = bs_graph(2, 3)
    assert GBSGraph.from_json(g.to_json()) == g


PINNED_GRAPHS = {**{f"BS({m},{n})": bs_graph(m, n)
                    for m, n in ((2, 3), (4, 6), (2, 2), (3, 6), (9, 12))}, **SMALL_GRAPHS}


def test_pifree_matches_enumeration():
    # the coprime-cycle decision against closed-walk enumeration, and every
    # witness re-checked as a walk, on the fixed graphs and random ones
    rng = random.Random(18)
    graphs = list(PINNED_GRAPHS.values())
    graphs += [g for g in (random_graph(rng) for _ in range(400)) if g is not None]
    assert len(graphs) > 150
    for g in graphs:
        for p in (2, 3, 5):
            report = check_pifree_criterion(g, p)
            assert report.pifree.met == enumerate_cycles_pifree_check(g, p), (g, p)
            # a fundamental cycle of a spanning tree has at most |V| edges
            want_vp = enumerate_cycles_valuation_check(g, p, max_len=len(g.vertices))
            assert report.vpfree.met == want_vp, (g, p)
            assert_witnesses_are_walks(g, p, report)


# SHA-256 of the `gbs --order-bounds` report file; a change that moves a
# witness edge, its order or a bound fails here
GBS_REPORT_DIGESTS = {
    "BS(2,3)/p2": "e1e2d52b29c2dd64ae223003e0895bd180de2a6c2ea178146d6d374c6c6ea704",  # optimal
    "BS(2,3)/p3": "6a70dcc5099e6d76a045d781c55a7e17baceb4b9add96ca0138cbaeef3e7152f",  # optimal
    "BS(2,3)/p5": "9822fa166342fbd4ae0939bfae3bb1731db58c1b0a9d0a93cb7b7ee9296dfca0",  # none
    "BS(4,6)/p2": "da3d1acfa2ba5ec4fc8d6d0cb275478abe6b8a139b56db4c965d83d0f05b4cff",  # linear
    "BS(4,6)/p3": "21947ff9038d76ece0dc0882b2623e402c1c25c5b8019f42ad2144c85a3bfa6c",  # optimal
    "BS(4,6)/p5": "9822fa166342fbd4ae0939bfae3bb1731db58c1b0a9d0a93cb7b7ee9296dfca0",  # none
    "BS(2,2)/p2": "54a3bfcd3b4ecff10de8e33f60943afdde423ac2c837b4ac7fe97803e3c1a62d",  # none
    "BS(2,2)/p3": "cfac0ce7b38818aa40801bbec6c8318ee3e78ad1e28bebf1aa9ade48f5c4b066",  # none
    "BS(2,2)/p5": "9822fa166342fbd4ae0939bfae3bb1731db58c1b0a9d0a93cb7b7ee9296dfca0",  # none
    "BS(3,6)/p2": "fb633a9e5a568bf78a7b26d0951c7972f5f321e3b010bbddf7aeab031582d34f",  # optimal
    "BS(3,6)/p3": "cfac0ce7b38818aa40801bbec6c8318ee3e78ad1e28bebf1aa9ade48f5c4b066",  # none
    "BS(3,6)/p5": "9822fa166342fbd4ae0939bfae3bb1731db58c1b0a9d0a93cb7b7ee9296dfca0",  # none
    "BS(9,12)/p2": "1346dcfbf4db21b31af1423cb4bf24f9d61049bae4277e3fdbd8b2c68d7bc096",  # optimal
    "BS(9,12)/p3": "c86a3a0867b550697329e099bfbf1e4a0fe9ba41d971d291fab6e39308bdfc8b",  # linear
    "BS(9,12)/p5": "9822fa166342fbd4ae0939bfae3bb1731db58c1b0a9d0a93cb7b7ee9296dfca0",  # none
    "ab/p2": "54a3bfcd3b4ecff10de8e33f60943afdde423ac2c837b4ac7fe97803e3c1a62d",  # none
    "ab/p3": "cfac0ce7b38818aa40801bbec6c8318ee3e78ad1e28bebf1aa9ade48f5c4b066",  # none
    "ab/p5": "9822fa166342fbd4ae0939bfae3bb1731db58c1b0a9d0a93cb7b7ee9296dfca0",  # none
    "ab2/p2": "0282f83b91abb24e0efde7adc964ce6a26f17867a05b6ddaed9e85c28cc85792",  # optimal
    "ab2/p3": "9a1f510563a4ff98d420643b91720f4e53fed275ad17be32e18549f695a8301f",  # optimal
    "ab2/p5": "423504b5cea7945bd88680eba385260653b656c8d6c51f00299ce08381d9e779",  # optimal
    "abc/p2": "ef17f40457b303bdf83ca4209158f8922487ec69657e8a4a52f2f4a28fb1d61d",  # linear
    "abc/p3": "b9501c7001c322210002904ce138c5edc680037ad4f30dfbef34320ad8f5b454",  # linear
    "abc/p5": "9822fa166342fbd4ae0939bfae3bb1731db58c1b0a9d0a93cb7b7ee9296dfca0",  # none
    "a2/p2": "dd226a2b5d894469c464d7e6c3a51a6783c5f6a4ac10cf1e5740d495e65a5946",  # optimal
    "a2/p3": "cfac0ce7b38818aa40801bbec6c8318ee3e78ad1e28bebf1aa9ade48f5c4b066",  # none
    "a2/p5": "9822fa166342fbd4ae0939bfae3bb1731db58c1b0a9d0a93cb7b7ee9296dfca0",  # none
}


@pytest.mark.parametrize("case", sorted(GBS_REPORT_DIGESTS))
def test_pinned_gbs_reports(case, tmp_path):
    name, p = case.rsplit("/p", 1)
    graph, out = tmp_path / "g.json", tmp_path / "report.json"
    graph.write_text(json.dumps(PINNED_GRAPHS[name].to_json()))
    assert main(["gbs", str(graph), "--p", p, "--order-bounds", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GBS_REPORT_DIGESTS[case]
