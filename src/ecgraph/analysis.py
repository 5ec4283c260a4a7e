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

    @cached_property
    def cc(self) -> ConnectivityReport:
        return is_colour_connected(self.g)

    @cached_property
    def tcc(self) -> ConnectivityReport:
        return is_trail_colour_connected(self.g)

    @cached_property
    def cb(self):
        """Both complete-bipartite answers, decided once for the two
        questions; raises UnsupportedClass unless complete bipartite."""
        from .supereuler import decide_complete_bipartite
        return decide_complete_bipartite(self.g)
