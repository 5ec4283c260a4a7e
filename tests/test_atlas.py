"""An exhaustive atlas of small graphs: every fact and decision of the
analysis, checked against the exhaustive oracles on every graph of two
families.

- every graph on 4 labelled vertices where each pair has no edge, a red
  edge, a blue edge or both (4^6 = 4,096 graphs);
- every graph on 3 vertices with up to two parallel edges of each
  colour per pair (9^3 = 729 graphs).

On each graph: colour-connectivity, trail-colour-connectivity, the
eulerian and the cycle factor agree with their oracles; a "no" sweep
names the first triple, in the sweeps' order (u, then v, then red
before blue), for which the oracle finds no path (trail); each
characterized decision agrees with its spanning oracle; every witness
passes `verify_witness`, and a decision's witness spans the graph; and
M-closedness, read off the similarity partition, agrees with
`is_m_closed`.  A bipartite graph's two reports come from the searches
of its digraph view, and equal the full path and trail sweeps', answer
and triple; a seeded set of larger bipartite multigraphs checks the
same against the sweeps and the path oracle.
"""

import itertools
import random
from collections import Counter

import pytest

import ecgraph.analysis
from ecgraph import (
    BLUE, RED, alternating_path, build_graph, is_colour_connected,
    is_m_closed, is_trail_colour_connected, verify_witness,
)
from ecgraph.analysis import Analysis
from ecgraph.oracle import (
    OracleBudget,
    oracle_alternating_path,
    oracle_alternating_trail,
    oracle_colour_connected,
    oracle_cycle_factor,
    oracle_eulerian_factor,
    oracle_ham_alternating,
    oracle_supereulerian,
    oracle_trail_colour_connected,
)

# per pair, the colours of its edges, red ones first
FAMILIES = {
    "4-vertices": (4, [(), (RED,), (BLUE,), (RED, BLUE)]),
    "3-vertices-parallel": (3, [(RED,) * r + (BLUE,) * b
                                for r in range(3) for b in range(3)]),
}


def _graphs(n, per_pair):
    vs = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    for choice in itertools.product(per_pair, repeat=len(pairs)):
        yield build_graph(vs, [(u, v, c) for (u, v), cs in zip(pairs, choice)
                               for c in cs])


def _first_failing(g, query, **budget):
    """The first triple (u, v, colour), in the sweeps' order, with no
    walk from `query`; None if every triple has one."""
    for u, v in itertools.permutations(g.vertices, 2):
        for c in (RED, BLUE):
            if query(g, u, v, c, **budget) is None:
                return u, v, c
    return None


def _bipartite(g):
    """Whether some split of the vertices into two sides has every edge
    across, tried split by split."""
    n = len(g.vertices)
    return any(all(s >> u & 1 != s >> v & 1 for u, v in zip(g.eu, g.ev))
               for s in range(1 << n))


def _spy_digraph_sweeps(monkeypatch):
    """The graphs the analysis sweeps through their digraph view."""
    swept = []
    sweep = ecgraph.analysis._digraph_sweep

    def spy(g, side):
        swept.append(g)
        return sweep(g, side)

    monkeypatch.setattr(ecgraph.analysis, "_digraph_sweep", spy)
    return swept


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_atlas_agrees_with_the_oracles(monkeypatch, family):
    n, per_pair = FAMILIES[family]
    seen = Counter()
    swept = _spy_digraph_sweeps(monkeypatch)
    for g in _graphs(n, per_pair):
        a = Analysis.of(g)
        name = f"{family} {[(e.u, e.v, e.colour.token) for e in g.edges]}"
        assert a.m_closed == is_m_closed(g)[0], name
        # a bipartite graph takes the digraph route, once, and it gives
        # what the full sweeps give
        del swept[:]
        reports = a.cc, a.tcc
        bipartite = _bipartite(g)
        assert swept == [g] * bipartite, name
        if bipartite:
            assert reports == (is_colour_connected(g),
                               is_trail_colour_connected(g)), name
        seen["bipartite", bipartite] += 1
        for rep, oracle, query in (
                (a.cc, oracle_colour_connected, oracle_alternating_path),
                (a.tcc, oracle_trail_colour_connected,
                 oracle_alternating_trail)):
            assert rep.connected == oracle(g), name
            if not rep.connected:
                assert rep.counterexample == _first_failing(g, query), name
        for w, oracle in ((a.ef, oracle_eulerian_factor),
                          (a.cf, oracle_cycle_factor)):
            assert (w is not None) == (oracle(g) is not None), name
            assert w is None or verify_witness(g, w), name
        for question, oracle in (("supereulerian", oracle_supereulerian),
                                 ("hamiltonian", oracle_ham_alternating)):
            d = a.decision(question)
            if d is None:
                continue
            assert d.answer == (oracle(g) is not None), name
            if d.witness is not None:
                assert verify_witness(g, d.witness), name
                assert d.witness.vertex_set(g) == set(g.vertices), name
            seen[d.route, question, d.answer] += 1
        seen["m_closed", a.m_closed] += 1
        # a base smaller than g: a block of two or more similar vertices
        seen["m_closed_with_a_block", a.m_closed] += a.base is not None
        seen["cc", a.cc.connected] += 1
        seen["tcc", a.tcc.connected] += 1
        seen["ef", a.ef is not None] += 1
        seen["cf", a.cf is not None] += 1
    # the atlas reaches both answers of every fact, and both answers of
    # both questions on the extension route, but for a yes that needs an
    # alternating cycle through every vertex, of even length
    even = n % 2 == 0
    for fact in ("m_closed", "m_closed_with_a_block", "cc", "tcc", "ef",
                 "cf", "bipartite"):
        assert seen[fact, True] or fact == "cf" and not even, (fact, seen)
        assert seen[fact, False], (fact, seen)
    for question in ("supereulerian", "hamiltonian"):
        assert seen["extension", question, True] \
            or question == "hamiltonian" and not even, (question, seen)
        assert seen["extension", question, False], (question, seen)


def _random_bipartite(rng):
    """A bipartite multigraph on 2..16 vertices, on random sides: each
    pair across is joined with a probability drawn per graph, by a red,
    a blue or both edges, each edge doubled one time in four, in a
    shuffled edge order; a sparse draw leaves it disconnected and some
    vertices isolated."""
    n = rng.randint(2, 16)
    vs = [f"v{i}" for i in range(n)]
    side = [rng.randint(0, 1) for _ in vs]
    p = rng.choice((0.2, 0.5, 0.8, 1.0))
    triples = []
    for i, j in itertools.combinations(range(n), 2):
        if side[i] != side[j] and rng.random() < p:
            for c in rng.choice(((RED,), (BLUE,), (RED, BLUE))):
                triples += [(vs[i], vs[j], c)] * rng.choice((1, 1, 1, 2))
    rng.shuffle(triples)
    return build_graph(vs, triples)


# the path oracle's exhaustive "no" grows with the edges, so it checks
# the graphs with at most 30
ORACLE_BUDGET = OracleBudget(max_vertices=16, max_edges=30)


def test_random_bipartite_multigraphs_agree_with_the_sweeps():
    rng = random.Random(33)
    seen = Counter()
    for i in range(400):
        g = _random_bipartite(rng)
        a = Analysis.of(g)
        full = is_colour_connected(g), is_trail_colour_connected(g)
        assert a.sides is not None, i
        assert a.tcc == a.cc and full[1] == full[0], i
        assert a.cc.connected == full[0].connected, i
        # a large extension reports its base's triple where that fails
        # on g too; every other graph reports the sweeps' first triple
        if a.swept is g:
            assert a.cc == full[0], i
        elif not a.cc.connected:
            assert alternating_path(g, *a.cc.counterexample) is None, i
        if len(g.bit) <= ORACLE_BUDGET.max_edges:
            ff = _first_failing(g, oracle_alternating_path,
                                budget=ORACLE_BUDGET)
            assert ff == full[0].counterexample, i
            seen["oracle", ff is None] += 1
        degrees = [len(g.star(x)[0]) for x in range(len(g.vertices))]
        reach = {0}
        for _ in g.vertices:
            reach |= {w for x in reach for w in g.star(x)[1]}
        seen["disconnected"] += len(reach) < len(g.vertices)
        pairs = Counter(zip(g.eu, g.ev, g.bit))
        both = {frozenset((u, v)) for u, v, _ in pairs}
        seen["quotient", a.swept is not g] += 1
        seen["connected", a.cc.connected] += 1
        seen["isolated"] += 0 in degrees
        seen["parallel"] += max(pairs.values(), default=0) > 1
        seen["both colours"] += len(both) < len(pairs)
    for key in (("oracle", True), ("oracle", False), ("quotient", True),
                ("quotient", False), ("connected", True),
                ("connected", False), "disconnected", "isolated", "parallel",
                "both colours"):
        assert seen[key], (key, seen)
