"""Shared-memory topology publication for the serve daemon's workers.

A run's :class:`~repro.congest.topology.CSRTopology` is frozen by
contract, so its array export can back worker processes as well as the
parent: :func:`publish_topology` copies the export **once** into a
``multiprocessing.shared_memory`` block and hands back a picklable
:class:`SharedTopologyHandle` (shm name + per-field offset/dtype/len —
a few hundred bytes regardless of n).  Workers
:func:`attach_topology`, getting read-only zero-copy views over the
same physical pages; the per-vertex Python-list structures the message
lanes need are rebuilt lazily on first access, so vector-fabric
workers never pay for them.

Every lifecycle transition is counted
(``repro_sharedmem_events_total``, see :mod:`repro.telemetry.schema`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..congest.topology import CSRTopology, TopologyArrays, _numpy
from ..telemetry.schema import SHAREDMEM_EVENTS

#: Extra array shipped beside :attr:`TopologyArrays.FIELDS`: the
#: input-order dense edge keys, so ``directed_edges()`` (and anything
#: else that needs insertion order) survives the round-trip.
_EDGE_ORDER = "edge_order"

#: CSRTopology slots an attached instance rebuilds on first access —
#: the message lanes' Python structures, which vector workers skip.
_LAZY_FIELDS = frozenset((
    "out_lists", "in_lists", "nbr_lists",
    "_link_index", "_weight_by_key", "_edge_order",
))


def _shared_memory():
    from multiprocessing import shared_memory
    return shared_memory


@dataclass(frozen=True)
class SharedTopologyHandle:
    """Picklable recipe for attaching to a published topology."""

    shm_name: str
    n: int
    num_edges: int
    num_dirlinks: int
    #: ``(field name, byte offset, dtype name, element count)`` per
    #: exported array, :attr:`TopologyArrays.FIELDS` order plus
    #: :data:`_EDGE_ORDER` last.
    fields: Tuple[Tuple[str, int, str, int], ...]


class PublishedTopology:
    """A topology export living in one shared-memory block.

    Create via :func:`publish_topology`; the parent owns the block and
    must :meth:`close` it (unlink included) when its workers are done —
    the serve daemon does so when it stops.  Usable as a context
    manager.
    """

    def __init__(self, topology: CSRTopology) -> None:
        np = _numpy()
        arr = topology.arrays()
        exports = [(name, getattr(arr, name))
                   for name, _role in TopologyArrays.FIELDS]
        exports.append(
            (_EDGE_ORDER,
             np.asarray(topology._edge_order, dtype=np.int64)))
        total = sum(int(a.nbytes) for _name, a in exports)
        self._shm = _shared_memory().SharedMemory(
            create=True, size=max(1, total))
        fields: List[Tuple[str, int, str, int]] = []
        offset = 0
        for name, a in exports:
            view = np.ndarray(a.shape, dtype=a.dtype,
                              buffer=self._shm.buf, offset=offset)
            view[:] = a  # the one copy; workers map, never copy
            fields.append((name, offset, a.dtype.name, int(a.size)))
            offset += int(a.nbytes)
        self.handle = SharedTopologyHandle(
            shm_name=self._shm.name, n=topology.n,
            num_edges=topology.num_edges,
            num_dirlinks=topology.num_dirlinks,
            fields=tuple(fields))
        self.nbytes = total
        self._closed = False
        SHAREDMEM_EVENTS.inc(event="publish")

    def close(self) -> None:
        """Detach and unlink the block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        SHAREDMEM_EVENTS.inc(event="detach")
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        SHAREDMEM_EVENTS.inc(event="unlink")

    def __enter__(self) -> "PublishedTopology":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def publish_topology(topology: CSRTopology) -> PublishedTopology:
    """Copy ``topology``'s frozen array export into shared memory."""
    return PublishedTopology(topology)


class _AttachedTopology(CSRTopology):
    """A :class:`CSRTopology` whose arrays are shared-buffer views.

    The array side (everything the vector kernels and
    ``send_arrays`` touch) is zero-copy and ready immediately; the
    Python-list side materializes lazily via :meth:`__getattr__` —
    ``__slots__`` leaves unset slots raising ``AttributeError``, which
    is exactly the hook — so a worker that stays on the kernel lanes
    never rebuilds it.
    """

    __slots__ = ("_shm", "_edge_order_view")

    def __init__(self) -> None:  # noqa: D401 - built by attach_topology
        pass

    def __getattr__(self, name: str):
        if name in _LAZY_FIELDS:
            _materialize(self)
            return getattr(self, name)
        raise AttributeError(name)


def _unflatten(indptr, indices, n: int) -> List[List[int]]:
    flat = indices.tolist()
    ptr = indptr.tolist()
    return [flat[ptr[v]:ptr[v + 1]] for v in range(n)]


def _materialize(topo: _AttachedTopology) -> None:
    """Rebuild the message lanes' Python structures from the arrays."""
    arr = topo._arrays
    n = topo.n
    topo.out_lists = _unflatten(arr.out_indptr, arr.out_indices, n)
    topo.in_lists = _unflatten(arr.in_indptr, arr.in_indices, n)
    nbr_lists = _unflatten(arr.nbr_indptr, arr.nbr_indices, n)
    topo.nbr_lists = nbr_lists
    link_index: Dict[int, int] = {}
    ptr = arr.nbr_indptr.tolist()
    for v in range(n):
        base = ptr[v]
        for offset, u in enumerate(nbr_lists[v]):
            link_index[u * n + v] = base + offset
    topo._link_index = link_index
    topo._weight_by_key = dict(
        zip(arr.out_keys.tolist(), arr.out_weights.tolist()))
    topo._edge_order = topo._edge_order_view.tolist()


def attach_topology(handle: SharedTopologyHandle) -> CSRTopology:
    """Map a published topology into this process (zero-copy).

    The returned topology holds the shared-memory mapping open; call
    :func:`detach_topology` (workers do, in a ``finally``) when done.
    """
    np = _numpy()
    shm = _shared_memory().SharedMemory(name=handle.shm_name)
    # POSIX attach registers the segment with the resource tracker
    # like a create does.  Under the fork start method the tracker
    # process is shared with the owner, so the duplicate register is
    # a set no-op and must be left alone (unregistering here would
    # strip the owner's entry).  Under spawn this process has its own
    # tracker, whose exit-time cleanup would unlink the owner's live
    # block — there the borrower must unregister (best-effort; the
    # attribute is private).
    try:  # pragma: no cover - start-method/version dependent
        import multiprocessing as _mp
        if _mp.get_start_method(allow_none=True) != "fork":
            from multiprocessing import resource_tracker
            resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    views: Dict[str, object] = {}
    for name, offset, dtype, count in handle.fields:
        view = np.ndarray((count,), dtype=np.dtype(dtype),
                          buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        views[name] = view
    topo = _AttachedTopology()
    topo.n = handle.n
    topo.num_edges = handle.num_edges
    topo.num_dirlinks = handle.num_dirlinks
    arrays = TopologyArrays._from_arrays(views)
    topo._arrays = arrays
    topo._send_cache = {}
    topo._link_pairs = None
    # CSR/link fields double as the plain-list attributes the scalar
    # accessors read; the array views serve both (int() coercion at
    # the few tuple-facing call sites is the callers' concern).
    for name in ("out_indptr", "out_indices", "in_indptr",
                 "in_indices", "nbr_indptr", "nbr_indices",
                 "link_receiver"):
        setattr(topo, name, views[name])
    topo._edge_order_view = views[_EDGE_ORDER]
    topo._shm = shm
    SHAREDMEM_EVENTS.inc(event="attach")
    return topo


def detach_topology(topo: CSRTopology) -> None:
    """Close this process's mapping (the owner unlinks, not us)."""
    shm = getattr(topo, "_shm", None)
    if shm is not None:
        shm.close()
        SHAREDMEM_EVENTS.inc(event="detach")

