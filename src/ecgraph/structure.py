"""M-closed recognition and closure, vertex similarity, and blow-ups.

Two vertices are similar when they are non-adjacent and have identical
coloured edge multisets towards every third vertex; the similar classes
of a graph are exactly the independent sets one gets by blowing up a
smaller base graph.  Since there are no loops, u != v are similar iff
their coloured edge multisets {(other end, colour): count} are equal: an
edge u-v would put v into u's multiset but never into v's own.  So
similarity is an equivalence, and the partition is one grouping of the
vertices by that multiset.  Hence the finest base is the quotient by
similarity, and a graph is an extension of an M-closed graph iff that
quotient is M-closed: merging non-similar vertices into one class is
never available, because copies of a blown-up vertex must be
non-adjacent with identical joins.

Both read the graph's integer index: a vertex's multiset comes from its
incidence lists, and M-closedness walks them in declaration order.  The
quotient of a graph with no two similar vertices is the graph itself,
not a copy, so facts kept on it are kept on the graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .core import (
    Colour,
    EdgeColouredMultigraph,
    GraphError,
)


def is_m_closed(g: EdgeColouredMultigraph
                ) -> tuple[bool, Optional[tuple[str, str, str]]]:
    """True iff the ends of every monochromatic 2-path are adjacent.

    On failure, returns the first violating (x, y, z) in declaration
    order: x-y and y-z share a colour but x and z are non-adjacent.
    """
    bit, off, inc, far = g.bit, g.off, g.inc, g.far
    names = g.vertices
    for y in range(len(names)):
        for s in range(off[y], off[y + 1]):
            x, c = far[s], bit[inc[s]]
            for t in range(s + 1, off[y + 1]):
                z = far[t]
                # x's far ends scanned, not kept as sets: blow-ups fail
                if x != z and bit[inc[t]] == c \
                        and z not in far[off[x]:off[x + 1]]:
                    return False, (names[x], names[y], names[z])
    return True, None


def m_closure(g: EdgeColouredMultigraph,
              colour_policy: str = "always_red",
              seed: Optional[int] = None) -> EdgeColouredMultigraph:
    """Add edges until M-closed; new edge colours follow the policy
    (always_red, always_blue, or seeded_random)."""
    if colour_policy not in ("always_red", "always_blue", "seeded_random"):
        raise ValueError(f"unknown colour policy {colour_policy!r}")
    rng = random.Random(seed)
    vs = g.vertices
    items = [(e, vs[u], vs[v], c) for e, u, v, c
             in zip(g.eid, g.eu, g.ev, g.bit)]
    cur = g
    k = 0
    while True:
        ok, triple = is_m_closed(cur)
        if ok:
            return cur
        x, _, z = triple
        if colour_policy == "always_red":
            col = Colour.RED
        elif colour_policy == "always_blue":
            col = Colour.BLUE
        else:
            col = rng.choice((Colour.RED, Colour.BLUE))
        items.append((f"mc{k}", x, z, col.bit))
        k += 1
        cur = EdgeColouredMultigraph._of(vs, items)


@dataclass(frozen=True)
class SimilarityPartition:
    blocks: tuple[tuple[str, ...], ...]
    quotient: EdgeColouredMultigraph   # g, or induced on first members
    multiplicities: dict[str, int]     # quotient vertex -> block size


def _joins(g: EdgeColouredMultigraph, i: int) -> tuple[int, ...]:
    """Vertex i's coloured edge multiset, as the sorted numbers
    2 * (other end) + colour bit."""
    return tuple(sorted([2 * w + g.bit[k] for k, w in zip(*g.star(i))]))


def similar(g: EdgeColouredMultigraph, u: str, v: str) -> bool:
    """Non-adjacent with identical coloured joins to every third vertex."""
    i, j = g.vertex_index(u), g.vertex_index(v)
    return i != j and _joins(g, i) == _joins(g, j)


def similarity_partition(g: EdgeColouredMultigraph) -> SimilarityPartition:
    """Blocks of similar vertices, in order of their first member, each
    in vertex order; the quotient keeps each block's first member, and
    is g itself when every block is a single vertex."""
    by_joins: dict[tuple[int, ...], list[str]] = {}
    for i, v in enumerate(g.vertices):
        by_joins.setdefault(_joins(g, i), []).append(v)
    blocks = tuple(tuple(b) for b in by_joins.values())
    quotient = (g if len(blocks) == len(g.vertices)
                else g.induced(b[0] for b in blocks))
    mult = {b[0]: len(b) for b in blocks}
    return SimilarityPartition(blocks, quotient, mult)


def blow_up(g: EdgeColouredMultigraph,
            multiplicities: dict[str, int]) -> EdgeColouredMultigraph:
    """Replace each vertex by an independent set of copies, every edge by
    a copy between each pair of endpoint copies."""
    for v in g.vertices:
        m = multiplicities.get(v)
        if not isinstance(m, int) or m < 1:
            raise GraphError(f"multiplicity for {v!r} must be a positive integer")
    copies = [[f"{v}.{i}" for i in range(multiplicities[v])]
              for v in g.vertices]
    return EdgeColouredMultigraph._of(
        [x for xs in copies for x in xs],
        ((f"{e}.{i}.{j}", a, b, c)
         for e, u, v, c in zip(g.eid, g.eu, g.ev, g.bit)
         for i, a in enumerate(copies[u]) for j, b in enumerate(copies[v])))


def is_extension_of_m_closed(g: EdgeColouredMultigraph
                             ) -> Optional[tuple[EdgeColouredMultigraph,
                                                 dict[str, int]]]:
    """The finest (base, multiplicities) pair with an M-closed base, or
    None.  The similarity quotient is canonical: if it is not M-closed,
    no valid base exists at all."""
    part = similarity_partition(g)
    ok, _ = is_m_closed(part.quotient)
    if not ok:
        return None
    return part.quotient, part.multiplicities
