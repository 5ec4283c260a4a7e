"""The facts the decisions rest on, computed at most once per graph.

The decisions of this package are conjunctions of a few facts.  An
extension of an M-closed graph is supereulerian iff it is
trail-colour-connected and has an eulerian factor, and hamiltonian iff
it is colour-connected and has an alternating cycle factor; a complete
bipartite graph is supereulerian (hamiltonian) iff it is
colour-connected and has an eulerian (cycle) factor.  `Analysis.of(g)`
is the memo those deciders and the CLI report read the facts from: each
is computed on its first read and kept in a slot of g itself, so it
lives exactly as long as that graph object and is never shared with
another graph.

The similarity partition is computed once, by `ext`.  When g is an
extension of an M-closed graph with more than `_QUOTIENT_THRESHOLD`
vertices and its M-closed base is smaller (and has at least two
vertices), both connectivity facts are swept on that base instead of on
g; its vertices carry the names of the first member of their block, so
a failing triple names vertices of g.  That both notions agree between
such an extension and its base is cross-checked (against the direct
sweeps of g, on blow-ups of 13 to 16 vertices), not proved.  It fails
outside the class: a path of a blow-up may pass through two copies of
one vertex, so every other graph is swept directly.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .connect import (
    ConnectivityReport,
    complete_multipartite_classes,
    is_colour_connected,
    is_trail_colour_connected,
)
from .core import CycleFactor, EdgeColouredMultigraph, EulerianFactor
from .factor import alternating_cycle_factor, eulerian_factor
from .structure import is_extension_of_m_closed

# above this size an extension of an M-closed graph is swept on its
# smaller M-closed base, whose answers are the graph's (see above)
_QUOTIENT_THRESHOLD = 12


class Analysis:
    """Memo of facts about one graph; read them as attributes.  The
    connectivity facts need at least two vertices."""

    def __init__(self, g: EdgeColouredMultigraph):
        self.g = g

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
        """The graph the connectivity facts are swept on: ext's base
        for a large extension with a smaller base, else g."""
        n = len(self.g.vertices)
        if n > _QUOTIENT_THRESHOLD and self.ext is not None \
                and 2 <= len(self.ext[0].vertices) < n:
            return self.ext[0]
        return self.g

    @cached_property
    def cc(self) -> ConnectivityReport:
        return is_colour_connected(self.swept)

    @cached_property
    def tcc(self) -> ConnectivityReport:
        return is_trail_colour_connected(self.swept)

    @cached_property
    def cb(self):
        """Both complete-bipartite answers, decided once for the two
        questions; raises UnsupportedClass unless complete bipartite."""
        from .supereuler import decide_complete_bipartite
        return decide_complete_bipartite(self.g)
