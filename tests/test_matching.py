import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ecgraph.matching import (
    IndexedGraph,
    MatchingError,
    PlainGraph,
    has_perfect_matching,
    maximum_matching,
)


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


@settings(max_examples=200, deadline=None)
@given(plain_graphs(), st.data())
def test_masked_matching_matches_brute_force(g, data):
    index = {v: i for i, v in enumerate(g.vertices)}
    ends = {eid: {u, v} for eid, u, v in g.edges}
    h = IndexedGraph(len(g.vertices),
                     ((index[u], index[v], eid) for eid, u, v in g.edges))
    masked = data.draw(st.sets(st.sampled_from(range(len(g.vertices)))))
    match = h.matching(masked)
    for v, m in enumerate(match):
        if v in masked:
            assert m == -1
        elif m != -1:
            assert match[m] == v and m not in masked
            assert ends[h.edge_id(v, m)] == {g.vertices[v], g.vertices[m]}
    rest = [v for v in g.vertices if index[v] not in masked]
    sub = PlainGraph(rest, [e for e in g.edges
                            if e[1] in rest and e[2] in rest])
    assert sum(m > v for v, m in enumerate(match)) \
        == brute_force_max_matching(sub)
