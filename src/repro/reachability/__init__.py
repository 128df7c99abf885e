"""Reachability indexes and the reasoning-to-reachability bridge.

Section 7, future-work item (2): "Reasoning with piece-wise linear
warded sets of TGDs is LogSpace-equivalent to reachability in directed
graphs.  Reachability in very large graphs has been well-studied and
many algorithms and heuristics have been designed that work well in
practice [2-hop labels, GRAIL, ...].  We are confident that several of
these algorithms can be adapted for our purposes."

This subpackage makes that equivalence executable:

* :class:`~repro.analysis.digraph.DiGraph` — the minimal directed
  graph with SCC condensation the analyses already use, re-exported;
* :mod:`index <repro.reachability.index>` — three classic reachability
  schemes behind one interface: on-demand DFS, GRAIL-style randomized
  interval labeling (negative-cut filter + verified fallback), and
  2-hop / pruned-landmark labeling (exact, constant-time queries);
* :mod:`bridge <repro.reachability.bridge>` — the LogSpace reduction
  itself: the configuration graph of the Section 4.3 linear proof
  search, materialized once per (program, database, goal predicate) so
  that *every* per-tuple certainty check becomes one reachability query
  against any of the indexes.
"""

from ..analysis.digraph import DiGraph
from .bridge import ConfigurationGraph, configuration_graph, data_graph
from .index import (
    DFSReachability,
    IntervalIndex,
    ReachabilityIndex,
    TwoHopIndex,
)

__all__ = [
    "DiGraph",
    "ReachabilityIndex",
    "DFSReachability",
    "IntervalIndex",
    "TwoHopIndex",
    "ConfigurationGraph",
    "configuration_graph",
    "data_graph",
]
