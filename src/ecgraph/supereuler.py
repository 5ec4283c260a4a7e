"""The names `bench/tracer.py` reads from this module, which
`bench/workloads.py` imports: kept until the tracer is retired.
`merge_trails_pair` is a second name for `ecgraph.merge.merge_cycles`.
"""

from .analysis import decide_complete_bipartite, supereulerian  # noqa: F401
from .merge import merge_cycles as merge_trails_pair  # noqa: F401
