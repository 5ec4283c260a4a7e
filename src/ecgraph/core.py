"""Data model for 2-edge-coloured multigraphs and their witnesses.

A graph is a set of named vertices together with identity-carrying edges,
each coloured red or blue.  Parallel edges are allowed, self-loops are not.
Witness objects (alternating trails, cycles, eulerian factors, cycle
factors) reference edges by id so that parallel edges are handled
uniformly.  Graphs and witnesses are immutable and every function here
is pure, with one exception: a graph's `_analysis` slot holds the
mutable memo of facts derived from it (`ecgraph.analysis`).

A graph is its own integer index, built in one validating pass from
`Edge` records or, by `parse_graph`, straight from the document: edges
by position, with ids, ends as vertex indices, colour bits, incidence
lists.  Lookups and algorithms read it, never g.edges (built on first
read), and `first_edges`, built once, picks the first declared of
parallel edges of one colour for the matching reductions and the merge.
The graph's `walk` is the one check of an alternating trail given as
edge positions, open or closed, and of an alternating cycle.
`_check_trail` maps a trail's ids to positions and walks them, for
`verify_witness` and for the parts the merge is given; the merge walks
each walk it builds; and `check_walk` adds the open path and trail
verdicts (ends, end colours, simplicity) that the path and trail
oracles run on the positions they find, and single path and trail
queries on the positions they collect from their search tree's check.
That check reads the same arrays, one tree step at a time
(`ecgraph.connect`); the connectivity sweeps run it alone and build no
walk.

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

_COLOUR_BITS = {"red": 0, "blue": 1}


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
    integer index, built by `_build` while it validates: by position k,
    id eid[k], ends eu[k] and ev[k] as vertex indices and colour bit[k]
    (`Colour.bit`).  Vertex i's incidence, in edge declaration order, is
    inc[off[i]:off[i + 1]] (edge positions) with far[...] the other end
    of each; index maps vertex names to indices and pos edge ids to
    positions.  Every lookup below and every algorithm reads these
    arrays; g.edges is built from them on first read, if not given.
    `_analysis` holds the memo of facts derived from the graph (see
    `ecgraph.analysis`), created on first use; it dies with the graph.
    """

    __slots__ = ("vertices", "index", "pos", "eid", "eu", "ev", "bit",
                 "off", "inc", "far", "_edges", "_first", "_analysis")

    def __init__(self, vertices: Sequence[str], edges: Sequence[Edge]):
        """Raises GraphError on the first fault, in this order: a
        duplicate vertex, then per edge a duplicate id, an unknown u, an
        unknown v, a self-loop."""
        self._edges = edges = tuple(edges)
        # Colour.bit, without a call per edge
        self._build(vertices, ((e.id, e.u, e.v, e.colour - 1)
                               for e in edges))

    @classmethod
    def _of(cls, vertices, items) -> "EdgeColouredMultigraph":
        """The graph `_build` builds; g.edges is built on first read."""
        g = cls.__new__(cls)
        g._edges = None
        g._build(vertices, items)
        return g

    def _build(self, vertices: Sequence[str], items: Iterable) -> None:
        """The index of the edges `items`, each an (id, u, v, colour
        bit), built in one validating pass.  An error that `items` raises
        passes through at once; the index's first fault, in the
        constructor's order, is raised after the last item."""
        self.vertices = tuple(vertices)
        self.index = index = {}
        fault = None
        for i, v in enumerate(self.vertices):
            if index.setdefault(v, i) != i and fault is None:
                fault = f"duplicate vertex id {v!r}"
        self.pos = pos = {}
        eid, eu, ev, bit = self.eid, self.eu, self.ev, self.bit = (
            [], [], [], [])
        incs: list[list[int]] = [[] for _ in self.vertices]
        for k, (e, a, b, c) in enumerate(items):
            u = index.get(a)
            v = index.get(b)
            if pos.setdefault(e, k) != k or u is None or v is None or u == v:
                # the graph is not built, so the arrays may skip the edge
                fault = fault or (
                    f"duplicate edge id {e!r}" if pos[e] != k else
                    f"edge {e!r}: unknown vertex {a!r}" if u is None else
                    f"edge {e!r}: unknown vertex {b!r}" if v is None else
                    f"edge {e!r}: self-loop at {a!r}")
                continue
            eid.append(e)
            eu.append(u)
            ev.append(v)
            bit.append(c)
            incs[u].append(k)
            incs[v].append(k)
        if fault:
            raise GraphError(fault)
        self.off = list(itertools.accumulate(map(len, incs), initial=0))
        self.inc = list(itertools.chain.from_iterable(incs))
        self.far = [ev[k] if eu[k] == i else eu[k]
                    for i, ks in enumerate(incs) for k in ks]
        self._first = self._analysis = None

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The `Edge` records: the constructor's, or built on first read."""
        if self._edges is None:
            vs = self.vertices
            self._edges = tuple(
                Edge(e, vs[u], vs[v], BIT_COLOUR[c])
                for e, u, v, c in zip(self.eid, self.eu, self.ev, self.bit))
        return self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColouredMultigraph):
            return NotImplemented
        # with the vertices equal, equal arrays are equal edges
        return (self.vertices, self.eid, self.eu, self.ev, self.bit) == (
            other.vertices, other.eid, other.eu, other.ev, other.bit)

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(self.eid)))

    def __repr__(self) -> str:
        return (f"EdgeColouredMultigraph({len(self.vertices)} vertices, "
                f"{len(self.bit)} edges)")

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

    def first_edges(self) -> list[tuple[dict[int, int], dict[int, int]]]:
        """Per vertex index, its red and blue neighbours (by colour bit,
        in incidence order), each mapped to the position of the first
        edge to it in that colour, the edge that stands for the pair;
        built on the first call and kept, for reading only."""
        if self._first is None:
            self._first = first = [({}, {}) for _ in self.vertices]
            for k, (u, v, c) in enumerate(zip(self.eu, self.ev, self.bit)):
                first[u][c].setdefault(v, k)
                first[v][c].setdefault(u, k)
        return self._first

    def walk(self, x: int, ks: Sequence[int], closed: bool = False,
             cycle: bool = False) -> list[int]:
        """The vertices of the walk from vertex x along the edges at
        positions ks: x, then the vertex each edge reaches; for a closed
        walk, one per edge: the vertex each edge leaves.

        Raises BadWalk unless the edges are pairwise distinct, and each
        is known, continues the walk and changes colour; then, if
        `closed`, unless the walk has edges, returns to x and has even
        length (so it alternates all round: its first and last colours
        differ); then, for a closed `cycle`, unless it visits no vertex
        twice.  An explicit check, so python -O keeps it; verification,
        the single path and trail queries, the oracles and the merge
        share it as their one definition of an alternating trail.
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
        if not closed:
            return seen
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
        eid = self.eid
        m = len(eid)
        return tuple(eid[k] if 0 <= k < m else k for k in ks)

    # --- string lookups ----------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self.pos[edge_id]]
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id!r}") from None

    def has_edge_id(self, edge_id: str) -> bool:
        return edge_id in self.pos

    def vertex_index(self, v: str) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

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
        vs = self.vertices
        return EdgeColouredMultigraph._of(
            [v for v in vs if v in keep],
            ((e, vs[u], vs[v], c) for e, u, v, c
             in zip(self.eid, self.eu, self.ev, self.bit)
             if vs[u] in keep and vs[v] in keep))


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
    """Closed alternating trail visiting no vertex twice: on its own a
    hamiltonian cycle, through every vertex of its graph; in a
    CycleFactor, one of the factor's cycles."""

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
    return EdgeColouredMultigraph._of(verts, _edge_items(raw_edges))


def _edge_items(raw_edges: list) -> Iterable[tuple[str, str, str, int]]:
    """Each edge item's (id, u, v, colour bit), checked as it is read;
    raises GraphError, with its location, at the first malformed item."""
    for i, item in enumerate(raw_edges):
        try:
            e, a, b = item["id"], item["u"], item["v"]
            c = _COLOUR_BITS[item["colour"]]
        except (TypeError, KeyError):
            c = None
        if (c is None or a == b or not isinstance(e, str)
                or not isinstance(a, str) or not isinstance(b, str)):
            raise GraphError(f"edges[{i}]: {_item_fault(item)}")
        yield e, a, b, c


def _item_fault(item: object) -> str:
    """The first fault of a malformed edge item, in the order checked."""
    if not isinstance(item, dict):
        return "must be an object"
    for key in ("id", "u", "v", "colour"):
        if not isinstance(item.get(key), str):
            return f'missing or non-string "{key}"'
    if item["colour"] not in _COLOUR_BITS:
        return f"unknown colour token {item['colour']!r}"
    return f"self-loop at {item['u']!r}"


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
                 cycle: bool = False, what: Optional[str] = None
                 ) -> tuple[VerifyResult, list[int], list[int]]:
    """The verdict on trail t (a cycle, with `cycle`), the vertex
    indices its walk visits and its edge positions: one decode of its
    ids, one walk.  Where `what` is given ("part", "factor witness"), t
    must be closed, and the reason names it so; a cycle must be closed,
    as "cycle" by default."""
    what = what or ("cycle" if cycle else None)
    x = g.index.get(t.start)
    if what and not t.closed:
        problem = f"{what} must be closed"
    elif x is None:
        problem = f"unknown start vertex {t.start!r}"
    else:
        ks = g.positions(t.edge_ids)
        try:
            return VerifyResult(True), g.walk(x, ks, t.closed, cycle), ks
        except BadWalk as exc:
            problem = exc.reason(t.edge_ids)
    return VerifyResult(False, problem), [], []


def verify_witness(g: EdgeColouredMultigraph, w: Witness) -> VerifyResult:
    """Check every invariant of the witness type against g."""
    if isinstance(w, AlternatingCycle):
        r, seen, _ = _check_trail(g, w, cycle=True)
        if r and len(seen) != len(g.vertices):
            return VerifyResult(False, "cycle misses a vertex")
        return r
    if isinstance(w, AlternatingTrail):
        return _check_trail(g, w)[0]
    # (declared vertex set, closed trail) per part; a cycle declares none
    if isinstance(w, EulerianFactor):
        parts, kind = w.parts, "parts"
    elif isinstance(w, CycleFactor):
        parts, kind = [(None, c) for c in w.cycles], "cycles"
    else:
        return VerifyResult(False, f"unknown witness type {type(w).__name__}")
    verts = g.vertices
    covered: set[str] = set()
    for vs, t in parts:
        if vs is not None and covered & vs:
            return VerifyResult(False, "factor parts overlap")
        r, seen, _ = _check_trail(g, t, vs is None,
                                  "cycle" if vs is None else "factor witness")
        if not r:
            return r
        got = {verts[x] for x in seen}
        if vs is None and covered & got:
            return VerifyResult(False, "factor cycles overlap")
        # a closed walk visits both ends of each edge, so this also
        # keeps every edge inside its part
        if vs is not None and got != vs:
            return VerifyResult(
                False, "factor witness does not span its vertex set")
        covered |= got
    if covered != set(verts):
        return VerifyResult(False, f"factor {kind} do not cover V")
    return VerifyResult(True)


def check_witness(g: EdgeColouredMultigraph, w: Witness, what: str
                  ) -> Witness:
    """w, after an explicit check that it is a valid witness in g (one
    that also runs under python -O); raises GraphError, naming `what`,
    if it is not.  Each producer of a witness calls it once, on what it
    returns."""
    r = verify_witness(g, w)
    if not r:
        raise GraphError(f"internal error: {what} fails verification: "
                         f"{r.reason}")
    return w


def check_walk(g: EdgeColouredMultigraph, x: int, ks: Sequence[int],
               y: int, start: int, end: int, simple: bool) -> None:
    """Raise GraphError unless ks are the positions of an alternating
    trail of g from vertex index x to y != x, first colour bit `start`,
    last `end` unless that is -1, and visiting no vertex twice if
    `simple`: all read from the graph's one walk of ks.  An explicit
    check, so python -O keeps it; single path and trail queries and the
    path and trail oracles run it on each witness they find."""
    try:
        seen = g.walk(x, ks)
    except BadWalk as exc:
        problem = "fails verification: " + exc.reason(g.ids(ks))
    else:
        # a walk without edges ends at x != y, so ks[0] exists below
        bit = g.bit
        if seen[-1] != y:
            problem = f"ends at {g.vertices[seen[-1]]!r}"
        elif bit[ks[0]] != start:
            problem = f"starts with {BIT_COLOUR[bit[ks[0]]]!r}"
        elif end >= 0 and bit[ks[-1]] != end:
            problem = f"ends with {BIT_COLOUR[bit[ks[-1]]]!r}"
        elif simple and len(set(seen)) != len(seen):
            problem = "revisits a vertex"
        else:
            return
    raise GraphError(f"internal error: {g.vertices[x]!r}-"
                     f"{g.vertices[y]!r} witness {problem}")


def build_graph(vertices: Sequence[str],
                edge_triples: Sequence[tuple[str, str, Colour]]
                ) -> EdgeColouredMultigraph:
    """Convenience constructor assigning sequential edge ids e0, e1, ..."""
    edges = [Edge(f"e{i}", u, v, c)
             for i, (u, v, c) in enumerate(edge_triples)]
    return EdgeColouredMultigraph(vertices, edges)
