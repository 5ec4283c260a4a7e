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
`is_m_closed`.
"""

import itertools
from collections import Counter

import pytest

from ecgraph import BLUE, RED, build_graph, is_m_closed, verify_witness
from ecgraph.analysis import Analysis
from ecgraph.oracle import (
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


def _first_failing(g, query):
    """The first triple (u, v, colour), in the sweeps' order, with no
    walk from `query`; None if every triple has one."""
    for u, v in itertools.permutations(g.vertices, 2):
        for c in (RED, BLUE):
            if query(g, u, v, c) is None:
                return u, v, c
    return None


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_atlas_agrees_with_the_oracles(family):
    n, per_pair = FAMILIES[family]
    seen = Counter()
    for g in _graphs(n, per_pair):
        a = Analysis.of(g)
        name = f"{family} {[(e.u, e.v, e.colour.token) for e in g.edges]}"
        assert a.m_closed == is_m_closed(g)[0], name
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
                 "cf"):
        assert seen[fact, True] or fact == "cf" and not even, (fact, seen)
        assert seen[fact, False], (fact, seen)
    for question in ("supereulerian", "hamiltonian"):
        assert seen["extension", question, True] \
            or question == "hamiltonian" and not even, (question, seen)
        assert seen["extension", question, False], (question, seen)
