import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ecgraph.matching import MatchingError, PlainGraph, maximum_matching

from reference import RefIndexedGraph, has_perfect_matching


def brute_force_max_matching(g: PlainGraph) -> int:
    """Largest matching size by subset enumeration."""
    best = 0
    for r in range(len(g.edges), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(g.edges, r):
            used = set()
            ok = True
            for _, u, v in combo:
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                best = max(best, r)
                break
    return best


class TestPlainGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(MatchingError):
            PlainGraph(["a"], [("e", "a", "a")])

    def test_rejects_duplicate_id(self):
        with pytest.raises(MatchingError):
            PlainGraph(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])


class TestKnownGraphs:
    def test_single_edge(self):
        g = PlainGraph(["a", "b"], [("e", "a", "b")])
        m = maximum_matching(g)
        assert len(m) == 1
        assert m.pairs == (("a", "b"),)

    def test_triangle(self):
        g = PlainGraph(["a", "b", "c"],
                       [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])
        assert len(maximum_matching(g)) == 1
        assert not has_perfect_matching(g)

    def test_odd_cycle_with_pendant(self):
        # blossom must shrink the 5-cycle to match the pendant
        verts = ["a", "b", "c", "d", "e", "f"]
        edges = [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"),
                 ("e4", "d", "e"), ("e5", "e", "a"), ("e6", "c", "f")]
        g = PlainGraph(verts, edges)
        assert has_perfect_matching(g)

    def test_petersen_has_perfect_matching(self):
        outer = [(f"o{i}", f"u{i}", f"u{(i + 1) % 5}") for i in range(5)]
        inner = [(f"i{i}", f"w{i}", f"w{(i + 2) % 5}") for i in range(5)]
        spokes = [(f"s{i}", f"u{i}", f"w{i}") for i in range(5)]
        verts = [f"u{i}" for i in range(5)] + [f"w{i}" for i in range(5)]
        g = PlainGraph(verts, outer + inner + spokes)
        assert has_perfect_matching(g)

    def test_deterministic(self):
        g = PlainGraph(["a", "b", "c", "d"],
                       [("e1", "a", "b"), ("e2", "c", "d"), ("e3", "b", "c")])
        assert maximum_matching(g).edge_ids == maximum_matching(g).edge_ids


@st.composite
def plain_graphs(draw):
    n = draw(st.integers(2, 8))
    verts = [f"v{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    # pairs may repeat, in either orientation: parallel edges
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=12))
    edges = [(f"e{k}", verts[i], verts[j])
             for k, (i, j) in enumerate(chosen)]
    return PlainGraph(verts, edges)


@settings(max_examples=200, deadline=None)
@given(plain_graphs())
def test_matching_matches_brute_force(g):
    m = maximum_matching(g)
    # returned matching is valid
    used = set()
    by_id = {e[0]: e for e in g.edges}
    for eid in m.edge_ids:
        _, u, v = by_id[eid]
        assert u not in used and v not in used
        used.update((u, v))
    assert len(m) == brute_force_max_matching(g)
    # a matched pair maps to the first edge declared between its ends
    for a, b in m.pairs:
        first = next(eid for eid, u, v in g.edges if {u, v} == {a, b})
        assert first in m.edge_ids


@st.composite
def paired_graphs(draw):
    """An IndexedGraph on 2..8 vertices that joins every i to i ^ 1 (the
    perfect matching `IndexedGraph.search` starts from), plus drawn
    extra edges, parallel ones included, as a PlainGraph."""
    n = 2 * draw(st.integers(1, 4))
    verts = [f"v{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = [(i, i + 1) for i in range(0, n, 2)]
    chosen += draw(st.lists(st.sampled_from(pairs), max_size=12))
    edges = [(f"e{k}", verts[i], verts[j])
             for k, (i, j) in enumerate(chosen)]
    return PlainGraph(verts, edges)


@settings(max_examples=200, deadline=None)
@given(paired_graphs(), st.data())
def test_search_outer_set_matches_brute_force(g, data):
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    h = RefIndexedGraph(n, ((index[u], index[v], eid)
                            for eid, u, v in g.edges))
    root = data.draw(st.integers(0, n - 1))
    masked = root ^ 1
    outer, p, match = h.search(root)
    # the search starts from, and keeps, the pairs i <-> i ^ 1 but root's
    assert match == [-1 if i in (root, masked) else i ^ 1 for i in range(n)]
    assert not outer[masked]
    for b in range(n):
        if b == masked:
            continue
        rest = [v for i, v in enumerate(g.vertices) if i not in (masked, b)]
        sub = PlainGraph(rest, [e for e in g.edges
                                if e[1] in rest and e[2] in rest])
        perfect = 2 * brute_force_max_matching(sub) == len(rest)
        assert outer[b] == perfect, b
        if not outer[b]:
            continue
        # the chain b, match[b], p[match[b]], ... is an even alternating
        # path from b to root: matched, then unmatched graph edge, ...
        chain = [b]
        while chain[-1] != root:
            assert len(chain) < n
            m = match[chain[-1]]
            assert m != -1 and p[m] != -1
            chain += [m, p[m]]
        assert len(chain) == len(set(chain)) and masked not in chain
        for k in range(0, len(chain) - 1, 2):
            u, v, w = chain[k], chain[k + 1], chain[k + 2]
            assert match[u] == v and match[v] == u
            assert w in h.adj[v] and match[v] != w
