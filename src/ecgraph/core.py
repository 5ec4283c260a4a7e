"""Data model for 2-edge-coloured multigraphs and their witnesses.

A graph is a set of named vertices together with identity-carrying edges,
each coloured red or blue.  Parallel edges are allowed, self-loops are not.
Witness objects (alternating trails, cycles, eulerian factors, cycle
factors) reference edges by id so that parallel edges are handled
uniformly.  Graphs and witnesses are immutable and every function here
is pure, with one exception: a graph's `_analysis` slot holds the
mutable memo of facts derived from it (`ecgraph.analysis`).

A graph is its own integer index, which the constructor builds while
it validates the graph: edges by position in g.edges, with their ends
as vertex indices, colour bits and the incidence lists.  The graph's
string lookups and every algorithm read it.  Its `walk` is the one
check of an alternating trail, and `closed_walk` adds the closed-trail
and cycle verdicts: `verify_witness` maps a trail's ids to positions
and runs them, the connectivity sweeps run `walk` on the positions they
read back, and the merge runs `closed_walk` on every walk it builds.

`positions` and `ids` are the one conversion between edge ids and
positions.  Every function that returns a witness checks it once,
before it returns (`check_witness`, or the walks above on positions),
and nothing downstream checks it again.

The id-level API (`EdgeColouredMultigraph.edge`, `Edge.other_end`,
`Edge.touches`) has no caller inside the package's decisions; it stays
on purpose, as the string-level way to inspect a graph that the tests,
their reference implementations and user code use.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2

    def other(self) -> "Colour":
        return Colour.BLUE if self is Colour.RED else Colour.RED

    @property
    def token(self) -> str:
        return "red" if self is Colour.RED else "blue"

    @property
    def bit(self) -> int:
        """The colour's bit in a graph's integer index: 0 red, 1 blue."""
        return self - 1


RED = Colour.RED
BLUE = Colour.BLUE
# colour bit -> colour
BIT_COLOUR = (RED, BLUE)

_COLOUR_TOKENS = {"red": RED, "blue": BLUE}


class GraphError(ValueError):
    """Raised for malformed graphs, witnesses, or serialized documents."""


class UnsupportedClass(ValueError):
    """The input lies outside the graph class this routine decides."""


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    colour: Colour

    def other_end(self, x: str) -> str:
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise GraphError(f"vertex {x!r} is not an endpoint of edge {self.id!r}")

    def touches(self, x: str) -> bool:
        return x == self.u or x == self.v


class BadWalk(GraphError):
    """Edge positions that do not form an alternating trail: `problem`
    says why, with {} for the edge at index `at` of the sequence (-1
    where the problem names no edge)."""

    def __init__(self, problem: str, at: int):
        super().__init__(problem.format(f"number {at}"))
        self.problem = problem
        self.at = at

    def reason(self, names: Sequence) -> str:
        """The problem, naming the edge by the repr of its entry in
        `names`."""
        return self.problem.format(repr(names[self.at]) if self.at >= 0
                                   else None)


class EdgeColouredMultigraph:
    """Immutable 2-edge-coloured multigraph with opaque string ids.

    Vertex order is declaration order and is the deterministic tie-break
    used by every algorithm in this package.  The graph is its own
    integer index, built by the constructor while it validates: by
    position k in g.edges, the ends eu[k] and ev[k] as vertex indices
    and colour bit[k] (`Colour.bit`).  Vertex i's incidence, in edge
    declaration order, is inc[off[i]:off[i + 1]] (edge positions) with
    far[...] the other end of each; index maps vertex names to indices
    and pos edge ids to positions.  Every lookup below and every
    algorithm reads these arrays.  `_analysis` holds the memo of facts
    derived from the graph (see `ecgraph.analysis`), created on first
    use; it lives and dies with the graph object.
    """

    __slots__ = ("vertices", "edges", "index", "pos", "eu", "ev", "bit",
                 "off", "inc", "far", "_analysis")

    def __init__(self, vertices: Sequence[str], edges: Sequence[Edge]):
        """Raises GraphError on the first fault, in this order: a
        duplicate vertex, then per edge a duplicate id, an unknown u, an
        unknown v, a self-loop."""
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.index = index = {}
        for i, v in enumerate(self.vertices):
            if index.setdefault(v, i) != i:
                raise GraphError(f"duplicate vertex id {v!r}")
        self.pos = pos = {}
        self.eu = eu = []
        self.ev = ev = []
        incs: list[list[int]] = [[] for _ in self.vertices]
        for k, e in enumerate(self.edges):
            if pos.setdefault(e.id, k) != k:
                raise GraphError(f"duplicate edge id {e.id!r}")
            u = index.get(e.u)
            if u is None:
                raise GraphError(f"edge {e.id!r}: unknown vertex {e.u!r}")
            v = index.get(e.v)
            if v is None:
                raise GraphError(f"edge {e.id!r}: unknown vertex {e.v!r}")
            if u == v:
                raise GraphError(f"edge {e.id!r}: self-loop at {e.u!r}")
            eu.append(u)
            ev.append(v)
            incs[u].append(k)
            incs[v].append(k)
        # Colour.bit, without a call per edge
        self.bit = [e.colour - 1 for e in self.edges]
        self.off = list(itertools.accumulate(map(len, incs), initial=0))
        self.inc = list(itertools.chain.from_iterable(incs))
        self.far = [ev[k] if eu[k] == i else eu[k]
                    for i, ks in enumerate(incs) for k in ks]
        self._analysis = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColouredMultigraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return (f"EdgeColouredMultigraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges)")

    # --- integer lookups ---------------------------------------------

    def star(self, i: int) -> tuple[list[int], list[int]]:
        """Vertex i's incidence: its edges' positions and their far
        ends, in incidence order."""
        a, b = self.off[i], self.off[i + 1]
        return self.inc[a:b], self.far[a:b]

    def colour_degrees(self, i: int) -> tuple[int, int]:
        """Vertex i's red and blue degrees, indexed by colour bit."""
        ks = self.star(i)[0]
        blue = sum(map(self.bit.__getitem__, ks))
        return len(ks) - blue, blue

    def walk(self, x: int, ks: Sequence[int]) -> list[int]:
        """The vertices of the walk from vertex x along the edges at
        positions ks: x, then the vertex each edge reaches.

        Raises BadWalk unless the edges are pairwise distinct, and each
        is known, continues the walk and changes colour.  An explicit
        check, so python -O keeps it; verification, the sweeps and the
        merge share it as their one definition of an alternating trail.
        """
        if len(set(ks)) != len(ks):
            raise BadWalk("edge repeated", -1)
        eu, ev, bit = self.eu, self.ev, self.bit
        m = len(bit)
        cur = x
        last = -1
        seen = [x]
        for t, k in enumerate(ks):
            if not 0 <= k < m:
                raise BadWalk("unknown edge id {}", t)
            if eu[k] == cur:
                cur = ev[k]
            elif ev[k] == cur:
                cur = eu[k]
            else:
                raise BadWalk("edge {} does not continue the walk", t)
            if bit[k] == last:
                raise BadWalk("colours do not alternate at edge {}", t)
            last = bit[k]
            seen.append(cur)
        return seen

    def closed_walk(self, x: int, ks: Sequence[int], cycle: bool = False
                    ) -> list[int]:
        """The vertices of the closed walk from vertex x along the edges
        at positions ks, one per edge: the vertex each edge leaves.

        Raises BadWalk as `walk` does, and unless the walk has edges,
        returns to x, has even length (so it alternates all round: its
        first and last colours differ) and, for a cycle, visits no
        vertex twice.
        """
        seen = self.walk(x, ks)
        if not ks:
            raise BadWalk("closed trail must have edges", -1)
        if seen.pop() != x:
            raise BadWalk("not closed", -1)
        if len(ks) % 2:
            raise BadWalk("closed trail length must be even and >= 2", -1)
        if cycle and len(set(seen)) != len(seen):
            # the length-2 digon passes: its walk is u, v, u
            raise BadWalk("cycle revisits a vertex", -1)
        return seen

    def positions(self, ids: Iterable[str]) -> list[int]:
        """The positions in g.edges of the edges with ids `ids`.  Each
        unknown id gets a negative number of its own, so a walk sees
        repeats exactly where the ids repeat and rejects the unknown ones
        as unknown."""
        pos = self.pos
        unknown: dict[str, int] = {}
        return [pos[e] if e in pos else unknown.setdefault(e, ~len(unknown))
                for e in ids]

    def ids(self, ks: Iterable[int]) -> tuple:
        """The ids of the edges at positions ks; a position with no edge
        stands for itself, so a BadWalk can name it."""
        m = len(self.edges)
        return tuple(self.edges[k].id if 0 <= k < m else k for k in ks)

    # --- string lookups ----------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self.pos[edge_id]]
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id!r}") from None

    def has_edge_id(self, edge_id: str) -> bool:
        return edge_id in self.pos

    def vertex_index(self, v: str) -> int:
        return self.index[v]

    def incident(self, v: str, colour: Optional[Colour] = None) -> tuple[Edge, ...]:
        bit = self.bit
        return tuple(self.edges[k] for k in self.star(self.index[v])[0]
                     if colour is None or bit[k] == colour.bit)

    def degree(self, v: str, colour: Optional[Colour] = None) -> int:
        return len(self.incident(v, colour))

    def edges_between(self, u: str, v: str,
                      colour: Optional[Colour] = None) -> tuple[Edge, ...]:
        j = self.index.get(v)
        ks, ws = self.star(self.index[u])
        return tuple(self.edges[k] for k, w in zip(ks, ws) if w == j
                     and (colour is None or self.bit[k] == colour.bit))

    def adjacent(self, u: str, v: str) -> bool:
        return self.index.get(v) in self.star(self.index[u])[1]

    def neighbours(self, v: str) -> tuple[str, ...]:
        return tuple(self.vertices[w]
                     for w in dict.fromkeys(self.star(self.index[v])[1]))

    # --- derived graphs ----------------------------------------------

    def induced(self, vertex_set: Iterable[str]) -> "EdgeColouredMultigraph":
        keep = set(vertex_set)
        verts = [v for v in self.vertices if v in keep]
        edges = [e for e in self.edges if e.u in keep and e.v in keep]
        return EdgeColouredMultigraph(verts, edges)


@dataclass(frozen=True)
class AlternatingTrail:
    """A sequence of pairwise-distinct edge ids forming an alternating trail.

    ``closed`` trails return to ``start`` and, per the convention used
    throughout this package, have first and last edges of different
    colours (so the length is even and at least 2).
    """

    start: str
    edge_ids: tuple[str, ...]
    closed: bool = False

    def __len__(self) -> int:
        return len(self.edge_ids)

    def vertex_sequence(self, g: EdgeColouredMultigraph) -> list[str]:
        """Vertices visited in order, including both endpoints, read
        from g's index.  Raises GraphError for an unknown edge id or an
        edge that does not continue the walk."""
        seq = [self.start]
        cur = g.index.get(self.start)
        for eid in self.edge_ids:
            k = g.pos.get(eid)
            if k is None:
                raise GraphError(f"unknown edge id {eid!r}")
            if g.eu[k] == cur:
                cur = g.ev[k]
            elif g.ev[k] == cur:
                cur = g.eu[k]
            else:
                raise GraphError(f"vertex {seq[-1]!r} is not an endpoint "
                                 f"of edge {eid!r}")
            seq.append(g.vertices[cur])
        return seq

    def end(self, g: EdgeColouredMultigraph) -> str:
        return self.vertex_sequence(g)[-1]

    def vertex_set(self, g: EdgeColouredMultigraph) -> frozenset[str]:
        return frozenset(self.vertex_sequence(g))

    def reversed(self, g: EdgeColouredMultigraph) -> "AlternatingTrail":
        new_start = self.start if self.closed else self.end(g)
        return AlternatingTrail(new_start, tuple(reversed(self.edge_ids)),
                                self.closed)


@dataclass(frozen=True)
class AlternatingCycle(AlternatingTrail):
    """Closed alternating trail visiting every vertex exactly once."""

    closed: bool = True


@dataclass(frozen=True)
class EulerianFactor:
    """Partition of V into parts, each spanned by a closed alternating trail."""

    parts: tuple[tuple[frozenset[str], AlternatingTrail], ...]


@dataclass(frozen=True)
class CycleFactor:
    """Vertex-disjoint alternating cycles covering V."""

    cycles: tuple[AlternatingCycle, ...]


Witness = AlternatingTrail | EulerianFactor | CycleFactor


# ---------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------

def parse_graph(text: str) -> EdgeColouredMultigraph:
    """Parse the JSON graph document; raises GraphError with a location."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphError("top-level document must be an object")
    verts = doc.get("vertices")
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise GraphError('"vertices" must be a list of strings')
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphError('"edges" must be a list')
    edges: list[Edge] = []
    for i, item in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(item, dict):
            raise GraphError(f"{where}: must be an object")
        for key in ("id", "u", "v", "colour"):
            if not isinstance(item.get(key), str):
                raise GraphError(f'{where}: missing or non-string "{key}"')
        colour = _COLOUR_TOKENS.get(item["colour"])
        if colour is None:
            raise GraphError(f"{where}: unknown colour token {item['colour']!r}")
        if item["u"] == item["v"]:
            raise GraphError(f"{where}: self-loop at {item['u']!r}")
        edges.append(Edge(item["id"], item["u"], item["v"], colour))
    return EdgeColouredMultigraph(verts, edges)


def graph_to_dict(g: EdgeColouredMultigraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "colour": e.colour.token}
            for e in g.edges
        ],
    }


def serialize_graph(g: EdgeColouredMultigraph, format: str = "json") -> str:
    if format == "json":
        return json.dumps(graph_to_dict(g), indent=2) + "\n"
    if format == "dot":
        lines = ["graph {"]
        for v in g.vertices:
            lines.append(f'  "{v}";')
        for e in g.edges:
            lines.append(f'  "{e.u}" -- "{e.v}" '
                         f'[color={e.colour.token}, id="{e.id}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise GraphError(f"unknown format {format!r}")


def witness_to_dict(g: EdgeColouredMultigraph, w: Witness) -> dict:
    if isinstance(w, AlternatingCycle):
        return {"kind": "cycle", "start": w.start, "edges": list(w.edge_ids)}
    if isinstance(w, AlternatingTrail):
        return {"kind": "trail", "start": w.start, "closed": w.closed,
                "edges": list(w.edge_ids)}
    if isinstance(w, EulerianFactor):
        return {"kind": "eulerian_factor",
                "parts": [{"vertices": sorted(vs),
                           "start": t.start,
                           "edges": list(t.edge_ids)}
                          for vs, t in w.parts]}
    if isinstance(w, CycleFactor):
        return {"kind": "cycle_factor",
                "cycles": [{"start": c.start, "edges": list(c.edge_ids)}
                           for c in w.cycles]}
    raise GraphError(f"unknown witness type {type(w).__name__}")


# ---------------------------------------------------------------------
# Witness verification
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    """A witness check's verdict, and why it fails."""

    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _check_trail(g: EdgeColouredMultigraph, t: AlternatingTrail,
                 cycle: bool = False) -> tuple[VerifyResult, list[int]]:
    """The verdict on trail t (a cycle, with `cycle`), and the vertex
    indices its walk visits: one decode of its ids, one walk."""
    if cycle and not t.closed:
        return VerifyResult(False, "cycle must be closed"), []
    x = g.index.get(t.start)
    if x is None:
        return VerifyResult(False, f"unknown start vertex {t.start!r}"), []
    ks = g.positions(t.edge_ids)
    try:
        seen = g.closed_walk(x, ks, cycle) if t.closed else g.walk(x, ks)
    except BadWalk as exc:
        return VerifyResult(False, exc.reason(t.edge_ids)), []
    return VerifyResult(True), seen


def verify_witness(g: EdgeColouredMultigraph, w: Witness) -> VerifyResult:
    """Check every invariant of the witness type against g."""
    if isinstance(w, AlternatingTrail):
        return _check_trail(g, w, isinstance(w, AlternatingCycle))[0]
    verts = g.vertices
    if isinstance(w, EulerianFactor):
        covered: set[str] = set()
        for vs, trail in w.parts:
            if covered & vs:
                return VerifyResult(False, "factor parts overlap")
            covered |= vs
            if not trail.closed:
                return VerifyResult(False, "factor witness must be closed")
            r, seen = _check_trail(g, trail)
            if not r:
                return r
            # a closed walk visits both ends of each edge, so this also
            # keeps every edge inside its part
            if {verts[x] for x in seen} != vs:
                return VerifyResult(
                    False, "factor witness does not span its vertex set")
        if covered != set(verts):
            return VerifyResult(False, "factor parts do not cover V")
        return VerifyResult(True)
    if isinstance(w, CycleFactor):
        covered = set()
        for c in w.cycles:
            r, seen = _check_trail(g, c, cycle=True)
            if not r:
                return r
            vs = {verts[x] for x in seen}
            if covered & vs:
                return VerifyResult(False, "factor cycles overlap")
            covered |= vs
        if covered != set(verts):
            return VerifyResult(False, "factor cycles do not cover V")
        return VerifyResult(True)
    return VerifyResult(False, f"unknown witness type {type(w).__name__}")


def check_witness(g: EdgeColouredMultigraph, w: Witness, what: str,
                  error: type[Exception] = GraphError) -> Witness:
    """w, after an explicit check that it is a valid witness in g (one
    that also runs under python -O); raises `error`, naming `what`,
    if it is not.  Each producer of a witness calls it once, on what it
    returns."""
    r = verify_witness(g, w)
    if not r:
        raise error(f"internal error: {what} fails verification: "
                    f"{r.reason}")
    return w


def build_graph(vertices: Sequence[str],
                edge_triples: Sequence[tuple[str, str, Colour]]
                ) -> EdgeColouredMultigraph:
    """Convenience constructor assigning sequential edge ids e0, e1, ..."""
    edges = [Edge(f"e{i}", u, v, c)
             for i, (u, v, c) in enumerate(edge_triples)]
    return EdgeColouredMultigraph(vertices, edges)
