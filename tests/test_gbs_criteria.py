import pytest

from ultrastab.gbs_criteria import (
    CriterionNotMet,
    GBSError,
    GBSGraph,
    check_pifree_criterion,
    gbs_vertex_order_bound,
)

from conftest import bs_graph


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

def test_graph_validation():
    with pytest.raises(GBSError):
        GBSGraph(("a", "b"), ())  # disconnected
    with pytest.raises(GBSError):
        GBSGraph(("a",), (("a", "a", 0, 2),))  # zero weight
    with pytest.raises(GBSError):
        GBSGraph(("a",), (("a", "b", 1, 2),))  # unknown vertex


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
