"""The CONGEST model substrate: simulator, accounting, and primitives.

This package contains everything the paper assumes of its execution
environment:

* :class:`~repro.congest.network.CongestNetwork` — the synchronous
  message-passing engine with per-link bandwidth accounting; it owns
  the rounds and nothing else;
* :class:`~repro.congest.topology.CSRTopology` (``net.topology``) and
  :mod:`~repro.congest.fastpath` — the communication fabric proper:
  the one home of every graph query (frozen CSR adjacency, dense link
  ids, edge weights), and batched flat-buffer message delivery with
  validation hoisted behind a flag;
* :mod:`~repro.congest.kernels` — the vector fabric: NumPy
  whole-frontier kernels for the round loops of the pruned hop-BFS,
  the k-source BFS, and the pipelined broadcast, bit-identical to the
  message engines in results and ledger accounting;
* :mod:`~repro.congest.dispatch` — the declarative primitive registry
  (:data:`~repro.congest.dispatch.REGISTRY`), the one
  :func:`~repro.congest.dispatch.dispatch` entry point that routes
  each primitive call to its vector kernel or message engine based on
  the registered constraints, and :func:`~repro.congest.dispatch.check`,
  which names the constraint a call would fail without running it;
* :class:`~repro.congest.metrics.RoundLedger` — round/message/congestion
  bookkeeping with named phases;
* BFS primitives (:mod:`~repro.congest.bfs`), the k-source h-hop BFS of
  Lemma 5.5 (:mod:`~repro.congest.multisource`), the pipelined tree
  broadcast of Lemma 2.4 (:mod:`~repro.congest.broadcast`), and the
  pipelined path-sweep engine (:mod:`~repro.congest.pipeline`) shared by
  Lemmas 4.4, 5.7, 7.7 and 7.8.

Every public name here has a caller outside the tests: a solver, the
runtime, the serve tier, a benchmark or an example.
"""

from .errors import (
    BandwidthExceededError,
    CongestError,
    InvalidInstanceError,
    NotALinkError,
    UnknownVertexError,
)
from .dispatch import check, dispatch
from .fastpath import FabricState, exchange_batch, exchange_reference
from .metrics import PhaseStats, RoundLedger
from .network import (
    DEFAULT_BANDWIDTH_WORDS,
    FABRICS,
    CongestNetwork,
    resolve_fabric,
)
from .topology import CSRTopology
from .words import INF, clamp_inf, is_unreachable, words_of
from .bfs import bfs_distances, bfs_tree, sssp_distances_weighted
from .multisource import multi_source_hop_bfs
from .spanning_tree import SpanningTree, build_spanning_tree
from .broadcast import (
    broadcast_messages,
    broadcast_value,
    convergecast,
    global_min,
)
from .pipeline import SweepResult, SweepTask, run_path_sweeps

__all__ = [
    "BandwidthExceededError",
    "CSRTopology",
    "CongestError",
    "CongestNetwork",
    "DEFAULT_BANDWIDTH_WORDS",
    "FABRICS",
    "FabricState",
    "INF",
    "InvalidInstanceError",
    "NotALinkError",
    "PhaseStats",
    "RoundLedger",
    "SpanningTree",
    "SweepResult",
    "SweepTask",
    "UnknownVertexError",
    "bfs_distances",
    "bfs_tree",
    "broadcast_messages",
    "broadcast_value",
    "build_spanning_tree",
    "check",
    "clamp_inf",
    "convergecast",
    "dispatch",
    "exchange_batch",
    "exchange_reference",
    "global_min",
    "is_unreachable",
    "multi_source_hop_bfs",
    "resolve_fabric",
    "run_path_sweeps",
    "sssp_distances_weighted",
    "words_of",
]
