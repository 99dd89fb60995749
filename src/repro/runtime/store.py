"""Content-addressed result store and regression diffs.

Every cell result is stored under a key that is the SHA-256 of
``(scenario, canonical params, seed, code version)``, where the code
version hashes every ``.py`` file in the installed ``repro`` package.
Re-running an unchanged suite is therefore pure cache hits; editing any
source file invalidates exactly the runs whose numbers could change.

Layout under the store root (default ``.repro-cache/``, overridable via
``$REPRO_CACHE_DIR`` or ``--cache-dir``)::

    objects/<key>.json      one JSON line per cell (content-addressed)
    runs/<label>.jsonl      append-only per-invocation manifests

Both are JSONL-compatible: ``cat objects/*.json`` or any single run
manifest is a valid JSONL stream, so downstream analysis needs nothing
beyond ``json.loads`` per line.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..telemetry.schema import STORE_GC, STORE_LOOKUPS, STORE_PUTS
from .results import (
    CellResult,
    CellSpec,
    canonical_params,
    results_from_jsonl,
)

DEFAULT_STORE_DIR = ".repro-cache"

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """SHA-256 over every .py file of the repro package (cached)."""
    global _code_version_cache
    if _code_version_cache is None:
        import repro
        root = pathlib.Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def cell_key(spec: CellSpec, version: Optional[str] = None) -> str:
    """Content address of one cell under one code version."""
    version = version or code_version()
    payload = "\0".join([
        spec.scenario,
        canonical_params(spec.params_dict),
        str(spec.seed),
        version,
    ])
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultStore:
    """Filesystem-backed content-addressed cache of cell results."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_STORE_DIR)
        self.root = pathlib.Path(root)
        self.objects_dir = self.root / "objects"
        self.runs_dir = self.root / "runs"

    # -- object store ------------------------------------------------------

    def _object_path(self, key: str) -> pathlib.Path:
        return self.objects_dir / f"{key}.json"

    def get(self, key: str) -> Optional[CellResult]:
        """Cached result for ``key``, marked ``cached=True``; or None.

        A corrupt object (interrupted write, concurrent clobber) is a
        cache miss, not an error: it is dropped so the re-run heals it.
        """
        path = self._object_path(key)
        if not path.is_file():
            STORE_LOOKUPS.inc(outcome="miss")
            return None
        try:
            result = CellResult.from_json(path.read_text())
        except (ValueError, KeyError):
            path.unlink(missing_ok=True)
            STORE_LOOKUPS.inc(outcome="corrupt")
            return None
        result.cached = True
        STORE_LOOKUPS.inc(outcome="hit")
        return result

    def put(self, result: CellResult) -> pathlib.Path:
        """Persist one result under its key (key must be set).

        Written atomically (temp file + rename) so readers never see a
        partial object.
        """
        if not result.key:
            raise ValueError("result has no content key")
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        path = self._object_path(result.key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(result.to_json() + "\n")
        os.replace(tmp, path)
        STORE_PUTS.inc()
        return path

    def __len__(self) -> int:
        if not self.objects_dir.is_dir():
            return 0
        return sum(1 for _ in self.objects_dir.glob("*.json"))

    # -- garbage collection ------------------------------------------------

    def gc(self, dry_run: bool = False) -> Dict[str, object]:
        """Prune objects that can never be read again.

        Three classes are garbage, checked in order:

        * **corrupt** — unparseable objects (interrupted writes); a
          lookup would drop them anyway, gc just does it eagerly.
        * **superseded code** — the stored filename no longer matches
          ``cell_key(spec)`` under the *current* code version, so no
          lookup will ever compute this address again.
        * **superseded topology** — ``serve-oracle`` spills for an
          ``(instance, solver)`` pair at a topology version below the
          newest one on disk; mutation bumped the epoch past them and
          :meth:`~repro.serve.oracle.ReplacementPathOracle.from_snapshot`
          refuses stale epochs, so they are dead weight.

        ``dry_run=True`` reports what *would* be pruned without
        touching the filesystem.  Returns a JSON-safe report.
        """
        from ..serve.shard import SPILL_SCENARIO

        report: Dict[str, object] = {
            "scanned": 0, "kept": 0, "pruned": 0, "bytes": 0,
            "dry_run": bool(dry_run),
            "reasons": {"corrupt": 0, "superseded_code": 0,
                        "superseded_topology": 0},
            "victims": [],
        }
        reasons: Dict[str, int] = report["reasons"]  # type: ignore
        victims: List[Dict[str, object]] = report["victims"]  # type: ignore
        if not self.objects_dir.is_dir():
            return report

        def condemn(path: pathlib.Path, reason: str,
                    detail: str) -> None:
            report["pruned"] += 1  # type: ignore[operator]
            report["bytes"] += path.stat().st_size  # type: ignore
            reasons[reason] += 1
            victims.append({"object": path.name, "reason": reason,
                            "detail": detail})
            if not dry_run:
                path.unlink(missing_ok=True)
            STORE_GC.inc(reason=reason)

        # Pass 1: parse everything, classify code-version garbage, and
        # find the newest topology epoch per (instance, solver) spill.
        live: List[Tuple[pathlib.Path, CellResult]] = []
        newest: Dict[Tuple[str, str], int] = {}
        for path in sorted(self.objects_dir.glob("*.json")):
            report["scanned"] += 1  # type: ignore[operator]
            try:
                result = CellResult.from_json(path.read_text())
            except (ValueError, KeyError):
                condemn(path, "corrupt", "unparseable object")
                continue
            if cell_key(result.spec) != path.stem:
                condemn(path, "superseded_code",
                        f"{result.scenario} under an old code version")
                continue
            if result.scenario == SPILL_SCENARIO:
                ident = (str(result.params.get("instance", "")),
                         str(result.params.get("solver", "")))
                epoch = int(result.params.get("topology_version", 0))
                newest[ident] = max(newest.get(ident, 0), epoch)
            live.append((path, result))

        # Pass 2: of the survivors, drop spills whose epoch is behind.
        for path, result in live:
            if result.scenario == SPILL_SCENARIO:
                ident = (str(result.params.get("instance", "")),
                         str(result.params.get("solver", "")))
                epoch = int(result.params.get("topology_version", 0))
                if epoch < newest[ident]:
                    condemn(path, "superseded_topology",
                            f"{ident[0]}@{epoch} < @{newest[ident]}")
                    continue
            report["kept"] += 1  # type: ignore[operator]
        return report

    # -- run manifests -----------------------------------------------------

    def record_run(self, label: str,
                   results: List[CellResult]) -> pathlib.Path:
        """Append one invocation's results as a JSONL run manifest."""
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        suffix = 0
        while True:
            name = (f"{stamp}-{label}.jsonl" if suffix == 0
                    else f"{stamp}-{label}.{suffix}.jsonl")
            path = self.runs_dir / name
            try:
                # Exclusive create: concurrent runs with the same label
                # and stamp each land on their own manifest.
                fh = path.open("x")
            except FileExistsError:
                suffix += 1
                continue
            with fh:
                for result in results:
                    fh.write(result.to_json() + "\n")
            return path

    @staticmethod
    def load_run(path: os.PathLike) -> List[CellResult]:
        return results_from_jsonl(pathlib.Path(path).read_text())

    # -- trace sinks -------------------------------------------------------

    def new_trace_dir(self, label: str) -> pathlib.Path:
        """Create a fresh trace sink ``traces/<stamp>-<label>/``.

        Trace artifacts live next to the objects/runs they describe so
        one ``--cache-dir`` carries the whole provenance story.
        """
        traces_root = self.root / "traces"
        stamp = time.strftime("%Y%m%d-%H%M%S")
        suffix = 0
        while True:
            name = (f"{stamp}-{label}" if suffix == 0
                    else f"{stamp}-{label}.{suffix}")
            path = traces_root / name
            try:
                path.mkdir(parents=True, exist_ok=False)
            except FileExistsError:
                suffix += 1
                continue
            return path


# -- regression diffs --------------------------------------------------------

@dataclass
class CellDiff:
    """Metric-level change of one cell identity between two runs."""

    identity: str
    changed: Dict[str, Tuple[object, object]]  # metric -> (old, new)


@dataclass
class DiffReport:
    """Structured comparison of two result sets (old vs new)."""

    changed: List[CellDiff] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    unchanged: int = 0

    @property
    def clean(self) -> bool:
        return not (self.changed or self.added or self.removed)

    def summary(self) -> str:
        return (f"{self.unchanged} unchanged, {len(self.changed)} "
                f"changed, {len(self.added)} added, "
                f"{len(self.removed)} removed")


def _diff_identity(result: CellResult) -> str:
    """The cell's identity with its ``fabric`` parameter set aside."""
    params = {k: v for k, v in result.params.items() if k != "fabric"}
    return CellSpec.make(result.scenario, params, result.seed).identity()


def diff_results(old: List[CellResult],
                 new: List[CellResult]) -> DiffReport:
    """Compare two result sets by cell identity (ignores code version).

    Wall time and cache provenance are not compared — only status and
    the deterministic metrics mapping.  The ``fabric`` parameter is
    set aside when cells are matched: every fabric must give the same
    ledgers, and one manifest runs one fabric, so a ``--fabric fast``
    run diffs against the default one cell by cell.
    """
    old_by_id = {_diff_identity(r): r for r in old}
    new_by_id = {_diff_identity(r): r for r in new}
    report = DiffReport()
    for identity in sorted(set(old_by_id) | set(new_by_id)):
        if identity not in new_by_id:
            report.removed.append(identity)
            continue
        if identity not in old_by_id:
            report.added.append(identity)
            continue
        a, b = old_by_id[identity], new_by_id[identity]
        changed: Dict[str, Tuple[object, object]] = {}
        if a.status != b.status:
            changed["status"] = (a.status, b.status)
        for name in sorted(set(a.metrics) | set(b.metrics)):
            if a.metrics.get(name) != b.metrics.get(name):
                changed[name] = (a.metrics.get(name),
                                 b.metrics.get(name))
        if changed:
            report.changed.append(CellDiff(identity, changed))
        else:
            report.unchanged += 1
    return report
