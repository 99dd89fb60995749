"""Declarative scenario registry.

A :class:`Scenario` bundles everything needed to reproduce one slice of
the paper's experimental landscape: a *run function* (build an instance,
run a solver, return metrics), the parameter grid to sweep, the seed
list, and the paper claims (:class:`Claim`) its full grid must bear
out.  Scenarios register themselves with the :func:`scenario`
decorator; the executor and the CLI only ever see scenario *names*, so
cells stay picklable and the registry is the single source of truth.

The standard catalog lives in :mod:`repro.runtime.catalog` and is
imported lazily on first registry access, so ``import repro`` stays
light and catalog <-> registry imports cannot cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.scaling import Cell
from .results import CellSpec

#: A scenario run function: (params, seed) -> flat metrics mapping.
RunFn = Callable[[Dict[str, object], int], Dict[str, object]]


@dataclass(frozen=True)
class Claim:
    """One paper claim, checked on one seed's cells of the full grid.

    ``value`` maps those cells to a number; the claim holds when it
    lies in ``[low, high]`` (inclusive, either side may be open).  A
    strict integer inequality is a bound of 1: "directed rounds exceed
    undirected rounds" is ``directed - undirected >= 1``.
    """

    text: str
    value: Callable[[Sequence[Cell]], float]
    low: Optional[float] = None
    high: Optional[float] = None

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise ValueError(f"claim {self.text!r} has no bound")

    @property
    def bound(self) -> str:
        low = "(-inf" if self.low is None else f"[{self.low:g}"
        high = "inf)" if self.high is None else f"{self.high:g}]"
        return f"{low}, {high}"

    def problem(self, value: float) -> Optional[str]:
        """Why ``value`` breaks this claim (None when it holds; a NaN
        never holds)."""
        if ((self.low is None or value >= self.low)
                and (self.high is None or value <= self.high)):
            return None
        return f"{format_value(value)} outside {self.bound}"


def format_value(value: float) -> str:
    """Integers as they are, fractions to three decimals."""
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return str(int(value))


@dataclass
class Scenario:
    """One registered experiment family."""

    name: str
    run: RunFn
    params: List[Dict[str, object]]
    seeds: List[int]
    description: str = ""
    tags: Tuple[str, ...] = ()
    #: Tiny parameter points used by ``--smoke`` runs and CI; default to
    #: the first full parameter point / first seed.
    smoke_params: Optional[List[Dict[str, object]]] = None
    smoke_seeds: Optional[List[int]] = None
    #: Checked on each seed's cells whenever the full grid runs.
    claims: Tuple[Claim, ...] = ()

    def cells(self, smoke: bool = False) -> List[CellSpec]:
        """Expand the scenario into its cell grid (params x seeds)."""
        params = self.params
        seeds = self.seeds
        if smoke:
            params = self.smoke_params or self.params[:1]
            seeds = self.smoke_seeds or self.seeds[:1]
        return [CellSpec.make(self.name, p, s)
                for p in params for s in seeds]

    def run_cell(self, params: Mapping[str, object],
                 seed: int) -> Dict[str, object]:
        return self.run(dict(params), seed)


_REGISTRY: Dict[str, Scenario] = {}
_catalog_loaded = False


def register(scen: Scenario) -> Scenario:
    """Register a scenario object directly (tests use this)."""
    if scen.name in _REGISTRY:
        raise ValueError(f"scenario {scen.name!r} already registered")
    if not scen.params or not scen.seeds:
        raise ValueError(f"scenario {scen.name!r} has an empty grid")
    _REGISTRY[scen.name] = scen
    return scen


def unregister(name: str) -> None:
    """Remove a scenario (test isolation helper)."""
    _REGISTRY.pop(name, None)


def scenario(
    name: str,
    params: Sequence[Mapping[str, object]],
    seeds: Sequence[int],
    description: str = "",
    tags: Sequence[str] = (),
    smoke_params: Optional[Sequence[Mapping[str, object]]] = None,
    smoke_seeds: Optional[Sequence[int]] = None,
    claims: Sequence[Claim] = (),
) -> Callable[[RunFn], RunFn]:
    """Decorator: register the function as scenario ``name``.

    The decorated function is returned unchanged (it stays a plain
    module-level function, so worker processes can re-import it).
    """

    def wrap(fn: RunFn) -> RunFn:
        register(Scenario(
            name=name,
            run=fn,
            params=[dict(p) for p in params],
            seeds=list(seeds),
            description=description or (fn.__doc__ or "").strip().split(
                "\n")[0],
            tags=tuple(tags),
            smoke_params=(None if smoke_params is None
                          else [dict(p) for p in smoke_params]),
            smoke_seeds=(None if smoke_seeds is None
                         else list(smoke_seeds)),
            claims=tuple(claims),
        ))
        return fn

    return wrap


def _ensure_catalog() -> None:
    global _catalog_loaded
    if not _catalog_loaded:
        # Roll back partial registrations if the catalog import dies,
        # so a retry re-imports cleanly instead of reporting either a
        # silently partial registry or spurious duplicate names.
        before = set(_REGISTRY)
        try:
            from . import catalog  # noqa: F401  (imports register)
        except BaseException:
            for name in set(_REGISTRY) - before:
                del _REGISTRY[name]
            raise
        _catalog_loaded = True


def get_scenario(name: str) -> Scenario:
    _ensure_catalog()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown scenario {name!r}; registered: {known}") from None


def all_scenarios() -> List[Scenario]:
    _ensure_catalog()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def scenario_names() -> List[str]:
    _ensure_catalog()
    return sorted(_REGISTRY)
