"""The facts the decisions rest on, computed at most once per graph,
and the two characterizations that decide from them.

An extension of an M-closed graph is supereulerian iff it has an
eulerian factor and is trail-colour-connected, and hamiltonian iff it
has an alternating cycle factor and is colour-connected; a complete
bipartite graph is supereulerian (hamiltonian) iff it is
colour-connected and has an eulerian (cycle) factor.
`Analysis.decision` states both, once, for both questions; the named
deciders at the end of this module read it.
`Analysis.of(g)` is the memo the decisions and the CLI report read the
facts from: each is computed on its first read and kept in a slot of g
itself, so it lives exactly as long as that graph object and is never
shared with another graph.

The similarity partition is computed once, by `ext`, and M-closedness
is read off it: g is M-closed iff it has an M-closed base and no block
of two or more similar vertices has an edge.  M-closedness is
hereditary, so g with no M-closed base is not M-closed; an edge x-u at
one of two similar vertices u, u' has a twin x-u' of its colour, and
u-x-u' is a monochromatic 2-path between non-adjacent ends; and g whose
larger blocks have no edge has just the base's 2-paths.  A base other
than g gets a memo seeded with itself as its base, so it is never
partitioned again.

When g is an extension of an M-closed graph with more than
`_QUOTIENT_THRESHOLD` vertices and its M-closed base is smaller (and
has at least two vertices), both connectivity facts are read off the
base's memo first; its vertices carry the names of the first member of
their block, so a failing triple names vertices of g.  A base yes is
g's, because every path or trail of the base lifts to g, and two copies
of one vertex are joined through a neighbour.  A base no is not always
g's: a walk of g may pass through two copies of one vertex.  So it
stands only when its triple (u, v, c) fails in g too: at once where u
has no edge of colour c in g, as then nothing leaves u in that colour,
else, on a bipartite g, by one search of g's digraph view from u
(`connect._digraph_tree`), and otherwise as asked of g's path or trail
query object, which builds no witness; where the triple does not fail
on g, g is swept itself, as every other graph is.  A
bipartite graph (`sides`, its 2-colouring) is swept by two searches of
its digraph view (`connect._digraph_sweep`), which give what the path
and trail sweeps would; any other graph by its path or trail query
object, the one that asked the base's triple where there was one.  The
quotient route comes first even for a bipartite g: the base's triple
is reported where it fails on g, and g's own first triple can differ
from it (at a twin of vertex 0).

The cycle factor of an extension with a smaller base, of any size, is
asked of the base first, where only a "no" is taken: a "yes" is still
computed on g, so every witness is g's own.  Let k_x be the size of
block x.  A cycle factor of g is a perfect red and a perfect blue
matching.  Counted per pair of blocks, a perfect colour-c matching of
g covers block x k_x times and joins blocks x and y at most
min(k_x, k_y) times, and only where the base has a colour-c edge xy,
since blocks are independent: a perfect b-matching of the base's
colour-c edges with b(x) = k_x, caps min(k_x, k_y).  So a short
max-flow for its fractional relaxation
(`factor._BMatching.half_integral`) means g has no cycle factor.  A
full flow proves nothing (a one-colour triangle of single-vertex
blocks has a fractional perfect matching only), and g's own
`alternating_cycle_factor` runs.  The partite classes are computed
once, on g: asking the base first did not pay for itself.

Trail-colour-connectivity is derived from the path sweeps.  Every
alternating path is an alternating trail, so `tcc` of a colour-connected
g is yes with no trail sweep, resting on the path sweep's witnesses.
On a bipartite g a triple has a trail exactly where it has a path (see
`ecgraph.connect`), so `tcc` is `cc`, counterexample included.
Otherwise each trail sweep starts at the triple, kept on the same
graph's memo, where its path sweep failed: every triple before it has a
path, so a trail, and both sweeps take the triples in one order, so it
reports what a full trail sweep would.  Where g had no path sweep (the
base's path no was confirmed on g), it starts at the first triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .connect import (
    ConnectivityReport,
    _digraph_sweep,
    _digraph_tree,
    _PathQuery,
    _sweep,
    _TrailQuery,
    bipartite_sides,
    complete_multipartite_classes,
)
from .core import (
    Colour, CycleFactor, EdgeColouredMultigraph, EulerianFactor,
    UnsupportedClass, Witness,
)
from .factor import _BMatching, alternating_cycle_factor, eulerian_factor
from .structure import is_extension_of_m_closed

# above this size an extension of an M-closed graph is swept on its
# smaller M-closed base first; a base yes lifts to the graph, and a
# base no is confirmed on it (see above)
_QUOTIENT_THRESHOLD = 12


@dataclass(frozen=True)
class Decision:
    """An answer to "supereulerian" or "hamiltonian" and the route that
    gave it: "extension" (of an M-closed graph), "complete_bipartite"
    or "oracle".  A negative answer names its reason, and the failing
    (u, v, colour) triple when connectivity is what fails."""

    answer: bool
    route: str
    witness: Optional[Witness] = None
    reason: Optional[str] = None
    counterexample: Optional[tuple[str, str, Colour]] = None

    def __bool__(self) -> bool:
        return self.answer

    @property
    def method(self) -> str:
        return "oracle" if self.route == "oracle" else "fast"


class Analysis:
    """Memo of facts about one graph; read them as attributes.  The
    connectivity facts need at least two vertices."""

    def __init__(self, g: EdgeColouredMultigraph):
        self.g = g
        # g's trail sweep starts where g's own path sweep failed (above)
        self._trail_start = (0, 0, 0)

    @classmethod
    def of(cls, g: EdgeColouredMultigraph) -> "Analysis":
        """The memo kept on g, created on first use."""
        if g._analysis is None:
            g._analysis = cls(g)
        return g._analysis

    @cached_property
    def ext(self) -> Optional[tuple[EdgeColouredMultigraph, dict[str, int]]]:
        """M-closed base and multiplicities, or None (not an extension
        of an M-closed graph).  A base other than g is its own base."""
        ext = is_extension_of_m_closed(self.g)
        if ext is not None and ext[0] is not self.g:
            base = ext[0]
            Analysis.of(base).ext = base, dict.fromkeys(base.vertices, 1)
        return ext

    @cached_property
    def m_closed(self) -> bool:
        """Read off ext (see above), at each block's first member."""
        ext, g = self.ext, self.g
        return ext is not None and all(
            k == 1 or not g.star(g.index[v])[0] for v, k in ext[1].items())

    @property
    def base(self) -> Optional[EdgeColouredMultigraph]:
        """ext's base where it is smaller than g, else None."""
        ext = self.ext
        if ext is not None and len(ext[0].vertices) < len(self.g.vertices):
            return ext[0]
        return None

    @cached_property
    def classes(self) -> Optional[list[list[str]]]:
        """Partite classes, or None (not complete multipartite)."""
        return complete_multipartite_classes(self.g)

    @cached_property
    def sides(self) -> Optional[list[int]]:
        """Side bits of g's 2-colouring (`bipartite_sides`), or None (not
        bipartite)."""
        return bipartite_sides(self.g)

    @property
    def complete_bipartite(self) -> bool:
        return self.classes is not None and len(self.classes) == 2

    @cached_property
    def ef(self) -> Optional[EulerianFactor]:
        return eulerian_factor(self.g)

    @cached_property
    def cf(self) -> Optional[CycleFactor]:
        """None at once where the base's flow is short (above)."""
        base = self.base
        if base is not None:
            k = [self.ext[1][v] for v in base.vertices]
            # node 2x + c is block x in colour bit c; parallel edges merge
            caps = {}
            for x, y, c in zip(base.eu, base.ev, base.bit):
                if x > y:
                    x, y = y, x
                caps[2 * x + c, 2 * y + c] = k[y] if k[y] < k[x] else k[x]
            flow = _BMatching([kx for kx in k for _ in (0, 1)], caps.items())
            if flow.half_integral() is None:
                return None
        return alternating_cycle_factor(self.g)

    @property
    def swept(self) -> EdgeColouredMultigraph:
        """The graph whose memo gives the connectivity facts first:
        the base of a large extension with a smaller base, else g."""
        base = self.base
        if len(self.g.vertices) > _QUOTIENT_THRESHOLD and base is not None \
                and len(base.vertices) >= 2:
            return base
        return self.g

    def _connectivity(self, fact: str, make, start: tuple[int, int, int]
                      ) -> ConnectivityReport:
        """g's report of `fact`, read off `swept`'s memo where that
        answers yes or its failing triple fails on g too (see above);
        otherwise g's own sweep: of its digraph view where g is
        bipartite, else from `start` on one `make(g)` object, whose
        failing triple becomes `_trail_start`."""
        g = self.g
        q = None
        if self.swept is not g:
            rep = getattr(Analysis.of(self.swept), fact)
            if rep.connected:
                return rep
            u, v, c = rep.counterexample
            x, y = g.index[u], g.index[v]
            if g.colour_degrees(x)[c.bit] == 0:
                return rep
            side = self.sides
            if side is not None:
                if _digraph_tree(g, side, c.bit ^ side[x], x)[0][y] is None:
                    return rep
            else:
                q = make(g)
                if not q.reaches(x, y, c.bit):
                    return rep
        if self.sides is not None:
            return _digraph_sweep(g, self.sides)
        rep = _sweep(q or make(g), start)
        if not rep.connected:
            u, v, c = rep.counterexample
            self._trail_start = (g.index[u], g.index[v], c.bit)
        return rep

    @cached_property
    def cc(self) -> ConnectivityReport:
        return self._connectivity("cc", _PathQuery, (0, 0, 0))

    @cached_property
    def tcc(self) -> ConnectivityReport:
        """Derived from cc; see above."""
        if self.cc.connected or self.sides is not None:
            return self.cc
        return self._connectivity("tcc", _TrailQuery, self._trail_start)

    def decision(self, question: str) -> Optional[Decision]:
        """The characterized answer to `question` ("supereulerian" or
        "hamiltonian"), or None where g is neither an extension of an
        M-closed graph nor complete bipartite.  An extension checks its
        factor first, then (trail-)colour-connectivity, and merges the
        factor's parts into the witness; a complete bipartite graph
        checks colour-connectivity first, then the factor, and carries
        no witness.  Raises UnsupportedClass for fewer than two
        vertices."""
        from .merge import merge_factor    # merge reads this memo

        g = self.g
        if len(g.vertices) < 2:
            raise UnsupportedClass("input needs at least two vertices")
        ham = question == "hamiltonian"
        no_factor = "no_cycle_factor" if ham else "no_eulerian_factor"
        if self.ext is not None:
            factor = self.cf if ham else self.ef
            if factor is None:
                return Decision(False, "extension", reason=no_factor)
            rep, unlinked = ((self.cc, "not_colour_connected") if ham else
                             (self.tcc, "not_trail_colour_connected"))
            if not rep.connected:
                return Decision(False, "extension", reason=unlinked,
                                counterexample=rep.counterexample)
            parts = factor.cycles if ham else [t for _, t in factor.parts]
            return Decision(True, "extension", merge_factor(g, parts))
        if self.complete_bipartite:
            if not self.cc.connected:
                return Decision(False, "complete_bipartite",
                                reason="not_colour_connected",
                                counterexample=self.cc.counterexample)
            if (self.cf if ham else self.ef) is None:
                return Decision(False, "complete_bipartite", reason=no_factor)
            return Decision(True, "complete_bipartite")
        return None


def _extension(g: EdgeColouredMultigraph, question: str) -> Decision:
    d = Analysis.of(g).decision(question)
    if d is None or d.route != "extension":
        raise UnsupportedClass(
            "input is not an extension of an M-closed graph")
    return d


def supereulerian(g: EdgeColouredMultigraph) -> Decision:
    """Spanning closed alternating trail of an extension of an M-closed
    graph, or the reason none exists."""
    return _extension(g, "supereulerian")


def alternating_hamiltonian_cycle(g: EdgeColouredMultigraph) -> Decision:
    """Spanning alternating cycle of an extension of an M-closed graph,
    or the reason none exists."""
    return _extension(g, "hamiltonian")


def decide_complete_bipartite(g: EdgeColouredMultigraph,
                              question: str) -> Decision:
    """The decision of `question` for a complete bipartite graph: by
    its own characterization, or, for one that is also an extension of
    an M-closed graph, by that route, as everywhere else."""
    if not Analysis.of(g).complete_bipartite:
        raise UnsupportedClass("input is not complete bipartite")
    return Analysis.of(g).decision(question)
