"""Hardness reductions, the digraph view of bipartite graphs, named
fixture graphs, and random generators.

The reductions turn the alternating hamiltonian cycle problem into the
spanning closed alternating trail problem, preserving the answer.  Both
attach private vertices to each original vertex so that a spanning trail
is forced to pass through every original vertex exactly once; the
gadget variant additionally guarantees that the image always has an
eulerian factor, concentrating the hardness in connectivity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .connect import bipartite_sides
from .core import (
    BLUE,
    Colour,
    Edge,
    EdgeColouredMultigraph,
    GraphError,
    RED,
    build_graph,
)
from .structure import blow_up, m_closure


# ---------------------------------------------------------------------
# reductions, and bipartite graphs as digraphs
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionMap:
    graph: EdgeColouredMultigraph
    # output vertex -> (source vertex, role)
    provenance: dict[str, tuple[str, str]]


def reduce_ham_to_supereulerian(g: EdgeColouredMultigraph,
                                variant: str = "basic") -> ReductionMap:
    """Image graph that is supereulerian iff g has an alternating
    hamiltonian cycle.

    basic: each vertex v gains pendants v.r and v.b carrying v's red and
    blue edges respectively, linked back by a blue v.r-v and a red
    v-v.b edge; any spanning trail must cross every v exactly once.

    gadget: v is replaced by an eight-vertex block whose two ports v.r
    and v.b take over the red and blue edges; each block alone carries a
    closed alternating trail, so the image always has an eulerian
    factor.
    """
    if variant not in ("basic", "gadget"):
        raise ValueError(f"unknown variant {variant!r}")
    verts: list[str] = []
    edges: list[Edge] = []
    prov: dict[str, tuple[str, str]] = {}

    if variant == "basic":
        for v in g.vertices:
            verts.extend((v, f"{v}.r", f"{v}.b"))
            prov[v] = (v, "plain")
            prov[f"{v}.r"] = (v, "r")
            prov[f"{v}.b"] = (v, "b")
        for e in g.edges:
            tag = "r" if e.colour is RED else "b"
            edges.append(Edge(e.id, f"{e.u}.{tag}", f"{e.v}.{tag}", e.colour))
        for v in g.vertices:
            edges.append(Edge(f"r.{v}", f"{v}.r", v, BLUE))
            edges.append(Edge(f"b.{v}", v, f"{v}.b", RED))
        return ReductionMap(EdgeColouredMultigraph(verts, edges), prov)

    for v in g.vertices:
        names = {role: f"{v}.{role}"
                 for role in ("r", "b", "g1", "g2", "g3", "g4")}
        for role, name in names.items():
            verts.append(name)
            prov[name] = (v, role)
        internal = [
            (names["b"], names["g1"], RED),
            (names["g1"], names["g2"], BLUE),
            (names["g2"], names["g3"], RED),
            (names["g3"], names["g4"], BLUE),
            (names["g4"], names["g1"], RED),
            (names["g1"], names["r"], BLUE),
            (names["r"], names["g4"], RED),
            (names["g2"], names["b"], BLUE),
        ]
        for k, (a, b, c) in enumerate(internal):
            edges.append(Edge(f"g.{v}.{k}", a, b, c))
    for e in g.edges:
        tag = "r" if e.colour is RED else "b"
        edges.append(Edge(e.id, f"{e.u}.{tag}", f"{e.v}.{tag}", e.colour))
    return ReductionMap(EdgeColouredMultigraph(verts, edges), prov)


@dataclass(frozen=True)
class BipartiteDigraph:
    """Digraph view of a bipartite 2-edge-coloured graph: a red edge
    points from the X side to the Y side, a blue edge the other way."""

    x_part: tuple[str, ...]
    y_part: tuple[str, ...]
    arcs: tuple[tuple[str, str, str], ...]   # (id, tail, head)


def bb_to_digraph(g: EdgeColouredMultigraph) -> BipartiteDigraph:
    """g's digraph view, on the sides of `bipartite_sides`: the first
    vertex of each component on side X.  Raises GraphError unless g is
    bipartite."""
    side = bipartite_sides(g)
    if side is None:
        raise GraphError("graph is not bipartite")
    arcs = []
    for e, u, c in zip(g.edges, g.eu, g.bit):
        # a red edge from its X end, a blue edge from its Y end
        arcs.append((e.id, e.u, e.v) if side[u] == c else (e.id, e.v, e.u))
    return BipartiteDigraph(
        tuple(v for v, s in zip(g.vertices, side) if s == 0),
        tuple(v for v, s in zip(g.vertices, side) if s == 1), tuple(arcs))


def bb_from_digraph(d: BipartiteDigraph) -> EdgeColouredMultigraph:
    """The bipartite graph whose digraph view is d.  Raises GraphError
    for an arc with both ends on one side, or an unknown end."""
    x_set, y_set = set(d.x_part), set(d.y_part)
    edges = []
    for eid, tail, head in d.arcs:
        for v in (tail, head):
            if v not in x_set and v not in y_set:
                raise GraphError(f"arc {eid!r}: unknown vertex {v!r}")
        if {tail, head} <= x_set or {tail, head} <= y_set:
            raise GraphError(f"arc {eid!r} does not cross the bipartition")
        # red from X, blue from Y: (id, u, v, colour bit)
        edges.append((eid, tail, head, 0) if tail in x_set
                     else (eid, head, tail, 1))
    return EdgeColouredMultigraph._of(tuple(d.x_part) + tuple(d.y_part),
                                      edges)


# ---------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------

def _cmg_family(r: int) -> EdgeColouredMultigraph:
    if r < 2:
        raise ValueError("the family needs r >= 2")
    zs = [f"z{i}" for i in range(1, 5)]
    xs = [f"x{i}" for i in range(1, r + 1)]
    ys = [f"y{i}" for i in range(1, r + 1)]
    triples: list[tuple[str, str, Colour]] = [
        ("z1", "z2", RED), ("z2", "z3", BLUE),
        ("z3", "z4", RED), ("z4", "z1", BLUE),
    ]
    for x in xs:
        triples.extend([(x, "z1", BLUE), (x, "z3", BLUE),
                        (x, "z4", BLUE), (x, "z2", RED)])
    for y in ys:
        triples.extend([(y, "z2", RED), (y, "z4", RED)])
    cross = set()
    for i in range(r):
        triples.append((xs[i], ys[i], RED))
        triples.append((ys[i], xs[(i + 1) % r], BLUE))
        cross.add((i, i))
        cross.add(((i + 1) % r, i))
    for i in range(r):
        for j in range(r):
            if (i, j) not in cross:
                triples.append((xs[i], ys[j], BLUE))
    return build_graph(zs + xs + ys, triples)


_FIXTURES = {
    # spanning closed alternating trail but no alternating ham cycle
    "efig": lambda: build_graph(
        ["v1", "v2", "v3", "v4", "v5", "v6"],
        [("v1", "v2", BLUE), ("v2", "v3", RED), ("v3", "v4", BLUE),
         ("v4", "v5", RED), ("v5", "v6", BLUE), ("v6", "v3", RED),
         ("v3", "v5", BLUE), ("v5", "v1", RED), ("v4", "v1", RED),
         ("v4", "v2", BLUE)]),
    # colour-connected with a cycle factor, yet no hamiltonian
    # alternating cycle and no spanning closed alternating trail
    "halfm": lambda: build_graph(
        list("abcdefgh"),
        [("a", "b", BLUE), ("c", "d", BLUE), ("e", "f", BLUE),
         ("g", "h", BLUE), ("a", "e", BLUE),
         ("b", "c", RED), ("d", "a", RED), ("f", "g", RED),
         ("e", "h", RED), ("a", "f", RED), ("b", "e", RED)]),
    # no alternating trail from x1 to x2 starting red, so not
    # trail-colour-connected; its doubled blow-up needall_h is
    "needall_g": lambda: build_graph(
        ["x1", "x2", "u", "v", "y1", "y2"],
        [("x1", "x2", BLUE), ("y1", "y2", BLUE), ("u", "v", BLUE),
         ("x1", "u", RED), ("x2", "u", RED),
         ("y2", "v", RED), ("y1", "v", RED)]),
    # blow-up of needall_g doubling u and v
    "needall_h": lambda: build_graph(
        ["x1", "x2", "u1", "u2", "v1", "v2", "y1", "y2"],
        [("x1", "x2", BLUE), ("y1", "y2", BLUE),
         ("u1", "v1", BLUE), ("u1", "v2", BLUE),
         ("u2", "v1", BLUE), ("u2", "v2", BLUE),
         ("x1", "u1", RED), ("x1", "u2", RED),
         ("x2", "u1", RED), ("x2", "u2", RED),
         ("y2", "v1", RED), ("y2", "v2", RED),
         ("y1", "v1", RED), ("y1", "v2", RED)]),
    # complete 3-partite, trail-colour-connected, no hamiltonian cycle
    "cmg_example": lambda: _cmg_family(2),
}


def fixture(name: str) -> EdgeColouredMultigraph:
    try:
        make = _FIXTURES[name]
    except KeyError:
        raise GraphError(
            f"unknown fixture {name!r}; available: "
            f"{', '.join(sorted(_FIXTURES))}") from None
    return make()


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


# ---------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------

def _random_base(rng: random.Random, n: int,
                 p: float = 0.6) -> EdgeColouredMultigraph:
    verts = [f"v{i}" for i in range(n)]
    triples: list[tuple[str, str, Colour]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                triples.append((verts[i], verts[j],
                                rng.choice((RED, BLUE))))
    return build_graph(verts, triples)


def generate(model: str, seed: int = 0,
             **params) -> EdgeColouredMultigraph:
    """Seeded random instance of the named model.

    random_2ec(n, m): n vertices, m uniform random coloured edges
    (parallel edges allowed, parallel same-coloured ones are not).  So
    there are at most n(n-1) edges, one per vertex pair and colour: a
    larger m is capped there without a word, e.g. n=3, m=20 gives 6.

    mclosed_blowup(n): blow-up of the closure of a small random base to
    exactly n vertices.

    complete_bipartite(n1, n2) / complete_multipartite(sizes): all cross
    pairs joined once, colours uniform.

    cmg_family(r): complete 3-partite family member on 2r + 4 vertices,
    trail-colour-connected without a hamiltonian alternating cycle.
    """
    rng = random.Random(seed)
    if model == "random_2ec":
        n = int(params.get("n", 6))
        m = int(params.get("m", 2 * n))
        if n < 2:
            raise ValueError("need n >= 2")
        if m < 0:
            raise ValueError("need m >= 0")
        verts = [f"v{i}" for i in range(n)]
        triples: list[tuple[str, str, Colour]] = []
        used = set()
        tries = 0
        while len(triples) < m and tries < 50 * m:
            tries += 1
            i, j = rng.sample(range(n), 2)
            c = rng.choice((RED, BLUE))
            key = (min(i, j), max(i, j), c)
            if key in used:
                continue
            used.add(key)
            triples.append((verts[i], verts[j], c))
        return build_graph(verts, triples)

    if model == "mclosed_blowup":
        n = int(params.get("n", 8))
        if n < 2:
            raise ValueError("need n >= 2")
        base_n = rng.randint(2, min(6, n))
        base = _random_base(rng, base_n)
        closed = m_closure(base, colour_policy="seeded_random",
                           seed=rng.randrange(1 << 30))
        mult = {v: 1 for v in closed.vertices}
        for _ in range(n - base_n):
            mult[rng.choice(closed.vertices)] += 1
        return blow_up(closed, mult)

    if model == "complete_bipartite":
        n1 = int(params.get("n1", 3))
        n2 = int(params.get("n2", 3))
        return generate("complete_multipartite", seed, sizes=[n1, n2])

    if model == "complete_multipartite":
        sizes = [int(s) for s in params.get("sizes", [2, 2, 2])]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("need at least two positive class sizes")
        classes = [[f"p{k}.{i}" for i in range(s)]
                   for k, s in enumerate(sizes)]
        verts = [v for cls in classes for v in cls]
        triples = []
        for a in range(len(classes)):
            for b in range(a + 1, len(classes)):
                for u in classes[a]:
                    for w in classes[b]:
                        triples.append((u, w, rng.choice((RED, BLUE))))
        return build_graph(verts, triples)

    if model == "cmg_family":
        return _cmg_family(int(params.get("r", 2)))

    raise ValueError(f"unknown model {model!r}")
