"""Declarative primitive registry + unified kernel dispatcher.

Every CONGEST primitive the solver phases route through a fabric
choice is registered here exactly once, as *data*: its message-engine
implementation, its vector (array-kernel) implementation, the
constraints under which the vector implementation is bit-identical to
the message engines, and its ledger-charging contract.  One
:func:`dispatch` entry point replaces the per-call-site applicability
predicates that used to make up DESIGN.md's hand-maintained fallback
matrix (the deprecated shims over them are gone since the scale-out
PR).

The registry is the single source of truth for three consumers:

* **dispatch** — :func:`dispatch` evaluates a primitive's constraints
  in declared order and routes the call: all pass → the vector kernel
  (counted as a ``vector`` hit); first failure → the message engine,
  counted as a ``fallback`` whose reason *is* the failing constraint's
  reason.  No hand-kept enum can drift from the checks.
* **telemetry** — :func:`known_kernels` / :func:`known_reasons` derive
  the ``kernel`` / ``reason`` label enums of the metric table
  (:data:`repro.telemetry.schema.KERNEL_DISPATCH`) from the registered
  constraints (plus escape hatches), which is what ``repro trace
  summary --check-reasons`` enforces in CI.
* **docs** — ``repro kernels list`` renders :func:`table_rows` /
  :func:`registry_json`, so the dispatch table users read is the one
  the dispatcher executes.

Implementations are stored as dotted ``(module, attribute)``
references and resolved lazily: the registry can therefore name
message engines living in :mod:`repro.core` modules that themselves
import this module, without an import cycle.

Constraint evaluation order is the contract: the reported fallback
reason is the *first* failing declared constraint (global fabric gates
first, then per-call constraints in registration order).  Constraints
may rely on their predecessors having passed — e.g. the hop-BFS
functional-aux check hashes seed indices, which the preceding
value-range constraint has already vouched for.

Adding a kernel or backend is one registration here (see DESIGN.md's
"Adding a kernel/backend" walkthrough): the dispatcher, the telemetry
enums, the ``repro kernels list`` table, and the registry-parametrized
force-fallback equivalence suite in ``tests/test_kernel_equivalence``
all pick it up with no further code.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, List, Mapping, Optional, Tuple,
)

from ..telemetry.schema import KERNEL_DISPATCH
from . import kernels as _kernels

#: A constraint check: ``check(net, call) -> bool`` (True = satisfied).
CheckFn = Callable[[object, Mapping[str, object]], bool]

#: A lazily-resolved implementation: (dotted module, attribute).
ImplRef = Tuple[str, str]

# -- fallback reasons (the ``reason=`` label vocabulary) ---------------------

#: The network does not run ``fabric="vector"`` at all — not a real
#: fallback, but counted so vector coverage is measurable per run.
REASON_FABRIC = "fabric-not-vector"
#: NumPy could not be imported.
REASON_NUMPY_MISSING = "numpy-missing"
#: Per-link total recording (lower-bound cut analysis) needs genuine
#: per-message routing.
REASON_RECORD_LINK_TOTALS = "record-link-totals"
#: Hop-BFS seeds whose auxiliary word is not a function of the index.
REASON_NON_FUNCTIONAL_AUX = "non-functional-aux"
#: Seed/table/init values outside the int64-safe range (or non-int).
REASON_VALUE_RANGE = "value-out-of-int64"
#: k-source key encoding ``d*k + rank`` would overflow int64.
REASON_KEY_OVERFLOW = "key-encoding-overflow"
#: A k-source BFS source is out of vertex range (the message path's
#: error behavior must win).
REASON_SOURCE_RANGE = "source-out-of-range"
#: A delay function produced steps beyond int64 mid-plan.
REASON_DELAY_OVERFLOW = "delay-overflow"
#: Path sweeps given as tasks with opaque ``combine`` closures instead
#: of a declarative segment grid.
REASON_NON_DECLARATIVE = "non-declarative-task"
#: A strict-mode broadcast holds an item wider than the bandwidth: the
#: abort must name the first overloaded link, which only per-item
#: routing knows.
REASON_STRICT_OVERLOAD = "strict-overload"


@dataclass(frozen=True)
class Constraint:
    """One declared applicability condition of a vector kernel.

    ``reason`` is the fallback-reason counter label charged when this
    constraint is the first to fail; ``description`` is what ``repro
    kernels list`` prints for it.
    """

    reason: str
    description: str
    check: CheckFn


@dataclass(frozen=True)
class Primitive:
    """One registered CONGEST primitive (a row of the dispatch table).

    Attributes
    ----------
    name:
        The kernel identifier used in dispatch counters.
    title, lemma:
        Human-readable row labels (``repro kernels list``).
    message, vector:
        Dotted references to the message-engine and array-kernel
        implementations.  Both take ``(net, **call)`` with identical
        keyword names and return identical values.
    constraints:
        Per-call constraints beyond :data:`GLOBAL_GATES`, evaluated in
        order after them.
    ledger:
        The charging contract both implementations honor.
    prepare:
        Optional ``prepare(net, call) -> plan`` hook run after all
        constraints pass and before the vector hit is counted; the
        plan is passed to the vector implementation as ``plan=``.
        Used for the overflow-prone send-plan builds: an
        ``OverflowError`` here falls back with ``escape_reason``
        before anything is charged.
    escape_reason:
        The fallback reason charged when ``prepare`` escapes.
    """

    name: str
    title: str
    lemma: str
    message: ImplRef
    vector: ImplRef
    constraints: Tuple[Constraint, ...] = ()
    ledger: str = ""
    prepare: Optional[Callable] = None
    escape_reason: Optional[str] = None
    #: resolved-implementation cache (per-registration, lazy).
    _cache: Dict[str, Callable] = field(default_factory=dict, repr=False,
                                        compare=False)

    def resolve(self, which: str) -> Callable:
        impl = self._cache.get(which)
        if impl is None:
            module, attr = self.message if which == "message" else self.vector
            impl = getattr(importlib.import_module(module), attr)
            self._cache[which] = impl
        return impl


# -- global gates (shared head of every primitive's constraint list) ---------

GLOBAL_GATES: Tuple[Constraint, ...] = (
    Constraint(
        REASON_FABRIC,
        'network runs fabric="vector"',
        lambda net, call: getattr(net, "fabric", None) == "vector",
    ),
    Constraint(
        REASON_RECORD_LINK_TOTALS,
        "per-link total recording off (cut analysis wants real routing)",
        lambda net, call: not net.record_link_totals,
    ),
    Constraint(
        REASON_NUMPY_MISSING,
        "NumPy importable",
        lambda net, call: _kernels.numpy_or_none() is not None,
    ),
)


# -- per-call constraint checks ----------------------------------------------


def _hop_bfs_values_ok(net, call) -> bool:
    n = net.n
    for u, value in call["seeds"].items():
        idx, aux = value
        if not isinstance(idx, int) or not isinstance(aux, int):
            return False
        if not (_kernels._fits_int64(idx) and _kernels._fits_int64(aux)
                and 0 <= u < n):
            return False
    return True


def _hop_bfs_aux_functional(net, call) -> bool:
    aux_of: Dict[int, int] = {}
    for idx, aux in call["seeds"].values():
        if aux_of.setdefault(idx, aux) != aux:
            return False
    return True


def _multisource_key_fits(net, call) -> bool:
    hop_limit = call["hop_limit"]
    k = len(call["sources"])
    return (hop_limit >= 0
            and (hop_limit + 2) * max(k, 1) < _kernels._INT64_SAFE)


def _vertex_ids_ok(net, vertices) -> bool:
    n = net.n
    return all(isinstance(v, int) and 0 <= v < n for v in vertices)


def _broadcast_fits_bandwidth(net, call) -> bool:
    if not net.strict:
        return True
    items = ((origin, payload)
             for origin, payloads in call["messages"].items()
             for payload in payloads)
    try:
        sizes = _kernels._broadcast_size_counts(items)
    except TypeError:
        return False  # unsizable: the message path raises in its phase
    return max(sizes, default=0) <= net.bandwidth_words


def _chain_prefix_fits(net, call) -> bool:
    return _kernels._fits_int64(call["prefix"][-1])


def _dp_zeta_fits(net, call) -> bool:
    return 0 <= call["zeta"] < _kernels._INT64_SAFE


def _sweeps_values_ok(net, call) -> bool:
    segments = call["segments"]
    return (_kernels._clamped_operands_ok((segments.offset,))
            and _kernels._clamped_operands_ok(segments.table))


def _tables_ok(values_ok: Callable[[object], bool], *keys: str) -> CheckFn:
    """A check that ``values_ok`` holds for every table under ``keys``
    (Theorem 3's Fraction lengths fail both value checks: the array
    lanes would truncate them)."""
    return lambda net, call: all(values_ok(call[key]) for key in keys)


# -- send-plan prepare hooks (the OverflowError escape hatches) ---------------


def _hop_bfs_prepare(net, call):
    direction = "in" if call["sense"] == "backward" else "out"
    return net.topology.send_arrays(direction, call["avoid_edges"],
                                    call["delay"])


def _multisource_prepare(net, call):
    if not call["sources"]:
        return None  # the k == 0 kernel never touches the plan
    return net.topology.send_arrays(call["direction"],
                                    call["avoid_edges"], call["delay"])


# -- the registry -------------------------------------------------------------

_PRIMITIVES: Tuple[Primitive, ...] = (
    Primitive(
        name="hop_bfs",
        title="pruned hop-BFS flood",
        lemma="L4.2/L7.5",
        message=("repro.core.hop_bfs", "_hop_bfs_message"),
        vector=("repro.congest.kernels", "pruned_max_hop_bfs_vector"),
        constraints=(
            Constraint(
                REASON_VALUE_RANGE,
                "seed vertices in range; (index, aux) int64-safe ints",
                _hop_bfs_values_ok,
            ),
            Constraint(
                REASON_NON_FUNCTIONAL_AUX,
                "auxiliary word is a function of the path index",
                _hop_bfs_aux_functional,
            ),
        ),
        ledger="opens its phase; uniform 3-word rounds over the "
               "frontier schedule",
        prepare=_hop_bfs_prepare,
        escape_reason=REASON_DELAY_OVERFLOW,
    ),
    Primitive(
        name="multisource",
        title="k-source hop BFS",
        lemma="L5.5",
        message=("repro.congest.multisource", "_multisource_message"),
        vector=("repro.congest.kernels", "multi_source_hop_bfs_vector"),
        constraints=(
            Constraint(
                REASON_KEY_OVERFLOW,
                "priority keys d*k + rank fit int64 (sane hop limit)",
                _multisource_key_fits,
            ),
            Constraint(
                REASON_SOURCE_RANGE,
                "sources are in-range ints (message path owns the "
                "error behavior otherwise)",
                lambda net, call: _vertex_ids_ok(net, call["sources"]),
            ),
        ),
        ledger="opens its phase; uniform 3-word rounds of the "
               "priority schedule",
        prepare=_multisource_prepare,
        escape_reason=REASON_DELAY_OVERFLOW,
    ),
    Primitive(
        name="broadcast",
        title="pipelined tree broadcast",
        lemma="L2.4",
        message=("repro.congest.broadcast", "_broadcast_message"),
        vector=("repro.congest.kernels", "broadcast_messages_vector"),
        constraints=(
            Constraint(
                REASON_SOURCE_RANGE,
                "origins are in-range ints (message path owns the "
                "error behavior otherwise)",
                lambda net, call: _vertex_ids_ok(net, call["messages"]),
            ),
            Constraint(
                REASON_STRICT_OVERLOAD,
                "strict mode: no item wider than the bandwidth (the "
                "abort needs the first overloaded link)",
                _broadcast_fits_bandwidth,
            ),
        ),
        ledger="opens its phase; one bulk charge: the makespan over "
               "the tree's leaves, and each item crossing n-1 links",
    ),
    Primitive(
        name="chain_flood",
        title="path-chain flood",
        lemma="L2.5",
        message=("repro.core.knowledge", "_chain_flood_message"),
        vector=("repro.congest.kernels", "chain_flood_vector"),
        constraints=(
            Constraint(
                REASON_VALUE_RANGE,
                "prefix weights int64-safe (tokens carry their "
                "differences)",
                _chain_prefix_fits,
            ),
        ),
        ledger="charges in the caller's open phase (bulk uniform "
               "gap schedule)",
    ),
    Primitive(
        name="dp_sweep",
        title="first-hit candidates + descending DP pipeline",
        lemma="L4.3/4.4",
        message=("repro.core.short_detour", "_dp_sweep_message"),
        vector=("repro.congest.kernels", "dp_sweep_vector"),
        constraints=(
            Constraint(
                REASON_VALUE_RANGE,
                "0 <= zeta, int64-safe round count",
                _dp_zeta_fits,
            ),
        ),
        ledger="opens its phase; bulk-charges zeta-1 uniform rounds",
    ),
    Primitive(
        name="path_sweeps",
        title="pipelined path sweeps",
        lemma="L4.4/5.7/5.9",
        message=("repro.congest.pipeline", "_path_sweeps_message"),
        vector=("repro.congest.kernels", "run_path_sweeps_vector"),
        constraints=(
            Constraint(
                REASON_NON_DECLARATIVE,
                "a declarative segment grid (task lists carry combine "
                "closures)",
                lambda net, call: call.get("segments") is not None,
            ),
            Constraint(
                REASON_VALUE_RANGE,
                "segment offsets and table ints: an integer array, or "
                "int64-safe rows (Fraction lengths take the message "
                "path)",
                _sweeps_values_ok,
            ),
        ),
        ledger="opens its phase; bulk-charges the FIFO makespan",
    ),
    Primitive(
        name="spanning_tree",
        title="BFS spanning-tree flood",
        lemma="L2.4 backbone",
        message=("repro.congest.spanning_tree", "_flood_message"),
        vector=("repro.congest.kernels", "spanning_tree_flood_vector"),
        ledger="opens its phase; one bulk charge from the BFS "
               "layering: an offers and a confirmation round per level",
    ),
    Primitive(
        name="n_shift",
        title="segment combine + N-shift",
        lemma="L5.8/5.9",
        message=("repro.core.segments", "_n_shift_message"),
        vector=("repro.congest.kernels", "n_shift_vector"),
        constraints=(
            Constraint(
                REASON_VALUE_RANGE,
                "segment tables and summaries ints: integer arrays, "
                "or int64-safe rows (3-word tokens; Fractions take the "
                "message path)",
                _tables_ok(_kernels._clamped_operands_ok,
                           "prefix", "suffix", "m_seg", "n_seg"),
            ),
        ),
        ledger="charges in the caller's open phase (k bulk rounds)",
    ),
    Primitive(
        name="landmark_completion",
        title="landmark closure + min-plus completion",
        lemma="L5.4/5.6",
        message=("repro.core.landmark_distances", "_completion_message"),
        vector=("repro.congest.kernels", "landmark_completion_vector"),
        constraints=(
            Constraint(
                REASON_VALUE_RANGE,
                "pair distances and landmark tables ints: integer "
                "arrays, or int64-safe rows (Fraction lengths take the "
                "message path)",
                _tables_ok(_kernels._clamped_operands_ok,
                           "pair_hops", "from_len", "to_len"),
            ),
        ),
        ledger="ledger-free local computation (value equality only)",
    ),
    Primitive(
        name="pairwise_min_sum",
        title="pairwise min-sum finish",
        lemma="P5.1",
        message=("repro.core.long_detour", "_pairwise_min_sum_message"),
        vector=("repro.congest.kernels", "pairwise_min_sum_vector"),
        constraints=(
            Constraint(
                REASON_VALUE_RANGE,
                "M and N tables ints: integer arrays, or int64-safe "
                "rows (Fraction lengths take the message path)",
                _tables_ok(_kernels._clamped_operands_ok,
                           "m_rows", "n_rows"),
            ),
        ),
        ledger="ledger-free local computation (value equality only)",
    ),
)

REGISTRY: Dict[str, Primitive] = {p.name: p for p in _PRIMITIVES}


# -- dispatch -----------------------------------------------------------------


def check(primitive: str, net, **call) -> Optional[str]:
    """First failing declared constraint's reason, or None (vector-ok).

    Pure: no counters are recorded (that is :func:`dispatch`'s job).
    Does not run ``prepare``, so an escape-hatch fallback (e.g. a
    delay-overflow mid-plan) is not predicted here — by design, since
    the escapes exist precisely because the condition is only
    discoverable while building the plan.
    """
    prim = REGISTRY[primitive]
    for constraint in GLOBAL_GATES + prim.constraints:
        if not constraint.check(net, call):
            return constraint.reason
    return None


def dispatch(primitive: str, net, **call):
    """Route one primitive invocation to the vector or message path.

    Evaluates the registered constraints in declared order; the first
    failure records a ``fallback`` counter with that constraint's
    reason and runs the message engine.  When all pass, any ``prepare``
    hook builds the send plan (its ``OverflowError`` escape falls back
    with the registered escape reason — nothing has been charged yet),
    the ``vector`` hit is recorded, and the array kernel runs.  Both
    implementations receive the identical ``**call`` keywords.
    """
    prim = REGISTRY[primitive]
    reason = check(primitive, net, **call)
    plan = None
    if reason is None and prim.prepare is not None:
        try:
            plan = prim.prepare(net, call)
        except OverflowError:
            reason = prim.escape_reason
    if reason is not None:
        KERNEL_DISPATCH.inc(kernel=prim.name, outcome="fallback",
                            reason=reason)
        return prim.resolve("message")(net, **call)
    KERNEL_DISPATCH.inc(kernel=prim.name, outcome="vector")
    if prim.prepare is not None:
        return prim.resolve("vector")(net, plan=plan, **call)
    return prim.resolve("vector")(net, **call)


# -- derived telemetry enums --------------------------------------------------


def known_kernels() -> frozenset:
    """The legal ``kernel=`` counter labels (derived from the registry)."""
    return frozenset(REGISTRY)


def known_reasons() -> frozenset:
    """The legal ``reason=`` labels: every registered constraint's
    reason plus every escape-hatch reason.  This is what CI's
    ``--check-reasons`` gate validates against."""
    reasons = {gate.reason for gate in GLOBAL_GATES}
    for prim in REGISTRY.values():
        reasons.update(c.reason for c in prim.constraints)
        if prim.escape_reason is not None:
            reasons.add(prim.escape_reason)
    return frozenset(reasons)


# -- rendering (the ``repro kernels list`` verb) ------------------------------


def _ref_name(ref: ImplRef) -> str:
    return f"{ref[0].rsplit('.', 1)[-1]}.{ref[1].lstrip('_')}"


def table_rows() -> List[List[str]]:
    """One row per primitive: the dispatch table as ``repro kernels
    list`` renders it (reference/fast share the message engine atop
    different exchange fabrics; vector is the array kernel)."""
    rows: List[List[str]] = []
    for prim in _PRIMITIVES:
        conditions = [c.reason for c in prim.constraints]
        if prim.escape_reason is not None:
            conditions.append(prim.escape_reason + " (escape)")
        rows.append([
            prim.name,
            prim.lemma,
            _ref_name(prim.message),
            _ref_name(prim.vector),
            ", ".join(conditions) if conditions else "-",
        ])
    return rows


def registry_json() -> List[Dict[str, object]]:
    """Machine-readable registry dump (``repro kernels list --json``)."""
    out: List[Dict[str, object]] = []
    for prim in _PRIMITIVES:
        out.append({
            "name": prim.name,
            "title": prim.title,
            "lemma": prim.lemma,
            "implementations": {
                "reference": ".".join(prim.message),
                "fast": ".".join(prim.message),
                "vector": ".".join(prim.vector),
            },
            "global_gates": [
                {"reason": g.reason, "description": g.description}
                for g in GLOBAL_GATES
            ],
            "constraints": [
                {"reason": c.reason, "description": c.description}
                for c in prim.constraints
            ],
            "escape_reason": prim.escape_reason,
            "ledger": prim.ledger,
        })
    return out
