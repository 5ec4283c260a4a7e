"""The facts the decisions rest on, computed at most once per graph,
and the two characterizations that decide from them.

An extension of an M-closed graph is supereulerian iff it has an
eulerian factor and is trail-colour-connected, and hamiltonian iff it
has an alternating cycle factor and is colour-connected; a complete
bipartite graph is supereulerian (hamiltonian) iff it is
colour-connected and has an eulerian (cycle) factor.
`Analysis.decision` states both, once, for both questions.
`Analysis.of(g)` is the memo the decisions and the CLI report read the
facts from: each is computed on its first read and kept in a slot of g
itself, so it lives exactly as long as that graph object and is never
shared with another graph.

The similarity partition is computed once, by `ext`.  When g is an
extension of an M-closed graph with more than `_QUOTIENT_THRESHOLD`
vertices and its M-closed base is smaller (and has at least two
vertices), both connectivity facts are swept on that base first; its
vertices carry the names of the first member of their block, so a
failing triple names vertices of g.  A base yes is g's, because every
path or trail of the base lifts to g, and two copies of one vertex are
joined through a neighbour.  A base no is not always g's: a walk of g
may pass through two copies of one vertex.  So it stands only when its
triple (u, v, c) fails in g too: at once where u has no edge of colour
c in g, as then nothing leaves u in that colour, else as asked with one
path or trail query on g; otherwise g is swept.  Every other graph is
swept directly.

Trail-colour-connectivity is derived from the path sweeps.  Every
alternating path is an alternating trail, so `tcc` of a colour-connected
g is yes with no trail sweep, resting on the path sweep's witnesses.
Otherwise each trail sweep starts at the triple where the path sweep of
the same graph failed: every triple before it has a path, so a trail,
and both sweeps take the triples in one order, so it reports what a full
trail sweep would.  Where g had no path sweep (the base's path no was
confirmed on g), g's trail sweep starts at the first triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .connect import (
    ConnectivityReport,
    _sweep,
    _TrailQuery,
    alternating_path,
    alternating_trail,
    complete_multipartite_classes,
    is_colour_connected,
)
from .core import (
    Colour, CycleFactor, EdgeColouredMultigraph, EulerianFactor,
    UnsupportedClass, Witness,
)
from .factor import alternating_cycle_factor, eulerian_factor
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
        # id of a graph whose path sweep failed (g or ext's base, both
        # alive as long as this memo) -> the failing triple, as indices
        self._path_failed: dict[int, tuple[int, int, int]] = {}

    @classmethod
    def of(cls, g: EdgeColouredMultigraph) -> "Analysis":
        """The memo kept on g, created on first use."""
        if g._analysis is None:
            g._analysis = cls(g)
        return g._analysis

    @cached_property
    def ext(self) -> Optional[tuple[EdgeColouredMultigraph, dict[str, int]]]:
        """M-closed base and multiplicities, or None (not an extension
        of an M-closed graph)."""
        return is_extension_of_m_closed(self.g)

    @cached_property
    def classes(self) -> Optional[list[list[str]]]:
        """Partite classes, or None (not complete multipartite)."""
        return complete_multipartite_classes(self.g)

    @property
    def complete_bipartite(self) -> bool:
        return self.classes is not None and len(self.classes) == 2

    @cached_property
    def ef(self) -> Optional[EulerianFactor]:
        return eulerian_factor(self.g)

    @cached_property
    def cf(self) -> Optional[CycleFactor]:
        return alternating_cycle_factor(self.g)

    @property
    def swept(self) -> EdgeColouredMultigraph:
        """The graph the connectivity facts are swept on first: ext's
        base for a large extension with a smaller base, else g."""
        n = len(self.g.vertices)
        if n > _QUOTIENT_THRESHOLD and self.ext is not None \
                and 2 <= len(self.ext[0].vertices) < n:
            return self.ext[0]
        return self.g

    def _connectivity(self, sweep, query) -> ConnectivityReport:
        """g's report by `sweep`, read off `swept` where that answers
        yes or its failing triple fails on g too (see above); otherwise
        g's own sweep."""
        g = self.g
        rep = sweep(self.swept)
        if self.swept is g or rep.connected:
            return rep
        u, _, c = rep.counterexample
        if g.colour_degrees(g.index[u])[c.bit] == 0 \
                or query(g, *rep.counterexample) is None:
            return rep
        return sweep(g)

    def _path_sweep(self, h: EdgeColouredMultigraph) -> ConnectivityReport:
        rep = is_colour_connected(h)
        if not rep.connected:
            u, v, c = rep.counterexample
            self._path_failed[id(h)] = (h.index[u], h.index[v], c.bit)
        return rep

    def _trail_sweep(self, h: EdgeColouredMultigraph) -> ConnectivityReport:
        return _sweep(h, _TrailQuery, self._path_failed.get(id(h), (0, 0, 0)))

    @cached_property
    def cc(self) -> ConnectivityReport:
        return self._connectivity(self._path_sweep, alternating_path)

    @cached_property
    def tcc(self) -> ConnectivityReport:
        """Derived from cc; see above."""
        if self.cc.connected:
            return self.cc
        return self._connectivity(self._trail_sweep, alternating_trail)

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
