"""Round, message, and congestion accounting for CONGEST executions.

Every call to :meth:`repro.congest.network.CongestNetwork.exchange`
advances the global round counter by one and records, per named *phase*,

* how many rounds the phase used,
* how many messages and words were moved,
* the maximum number of words carried by any single directed link in any
  single round (the *congestion*, which in the CONGEST model must be O(1)
  words, i.e. O(log n) bits).

Phases nest (a long-detour phase contains a broadcast sub-phase); metrics
are charged to every phase on the current stack, with the root phase
``"total"`` always present.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List

from ..telemetry import trace as _trace


@dataclass
class PhaseStats:
    """Aggregated statistics for one named phase of an execution."""

    name: str
    rounds: int = 0
    messages: int = 0
    words: int = 0
    max_link_words: int = 0
    #: Number of (link, round) pairs that exceeded the bandwidth budget.
    violations: int = 0

    def charge_round(self, messages: int, words: int, max_link_words: int,
                     violations: int) -> None:
        self.rounds += 1
        self.messages += messages
        self.words += words
        if max_link_words > self.max_link_words:
            self.max_link_words = max_link_words
        self.violations += violations

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "rounds": self.rounds,
            "messages": self.messages,
            "words": self.words,
            "max_link_words": self.max_link_words,
            "violations": self.violations,
        }


class RoundLedger:
    """Hierarchical round/message accounting.

    Usage::

        ledger = RoundLedger()
        with ledger.phase("short-detour"):
            ...  # exchanges performed here are charged to the phase
        print(ledger.rounds, ledger["short-detour"].rounds)
    """

    ROOT = "total"

    def __init__(self) -> None:
        self._stats: Dict[str, PhaseStats] = {
            self.ROOT: PhaseStats(self.ROOT)
        }
        self._stack: List[str] = [self.ROOT]
        #: Order in which phases were first opened, for stable reporting.
        self._order: List[str] = [self.ROOT]

    # -- phase management -------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[PhaseStats]:
        """Open a named accounting phase for the duration of the block.

        When tracing is enabled (:mod:`repro.telemetry.trace`), every
        phase additionally opens a ``phase/<name>`` span joining its
        wall time with this ledger's round/message/word deltas; the
        disabled path is one module-global check.
        """
        stats = self._stats.get(name)
        if stats is None:
            stats = PhaseStats(name)
            self._stats[name] = stats
            self._order.append(name)
        self._stack.append(name)
        try:
            if _trace._ENABLED:
                with _trace.span(f"phase/{name}", ledger=self):
                    yield stats
            else:
                yield stats
        finally:
            popped = self._stack.pop()
            assert popped == name, "phase stack corrupted"

    # -- charging ----------------------------------------------------------

    def charge_round(self, messages: int, words: int, max_link_words: int,
                     violations: int = 0) -> None:
        """Charge one synchronous round to every phase on the stack."""
        for name in set(self._stack):
            self._stats[name].charge_round(
                messages, words, max_link_words, violations)

    def charge_rounds(self, rounds: int, messages: int, words: int,
                      max_link_words: int, violations: int = 0) -> None:
        """Charge ``rounds`` rounds' aggregate totals in one call.

        Equivalent to any sequence of ``rounds`` :meth:`charge_round`
        calls whose message/word/violation counts sum to the given
        totals and whose per-round link maxima peak at
        ``max_link_words`` — phase stats only ever hold aggregates, so
        the vector kernels use this to charge a whole schedule at once
        without walking it round by round.
        """
        if rounds <= 0:
            return
        for name in set(self._stack):
            stats = self._stats[name]
            stats.rounds += rounds
            stats.messages += messages
            stats.words += words
            if max_link_words > stats.max_link_words:
                stats.max_link_words = max_link_words
            stats.violations += violations

    # -- reading -----------------------------------------------------------

    def __getitem__(self, name: str) -> PhaseStats:
        return self._stats[name]

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    @property
    def rounds(self) -> int:
        return self._stats[self.ROOT].rounds

    @property
    def messages(self) -> int:
        return self._stats[self.ROOT].messages

    @property
    def words(self) -> int:
        return self._stats[self.ROOT].words

    @property
    def max_link_words(self) -> int:
        return self._stats[self.ROOT].max_link_words

    @property
    def violations(self) -> int:
        return self._stats[self.ROOT].violations

    def phases(self) -> List[PhaseStats]:
        """All phase stats in first-opened order (root first)."""
        return [self._stats[name] for name in self._order]

    def breakdown(self) -> Dict[str, int]:
        """Mapping of phase name to rounds, root first."""
        return {s.name: s.rounds for s in self.phases()}

    def report(self) -> str:
        """Human-readable multi-line summary.

        Every column of :class:`PhaseStats` appears — including
        ``max_link_words`` and ``violations`` — so this report and the
        traced per-phase view (``repro trace summary``) agree on what a
        phase cost.
        """
        lines = [
            f"{'phase':<28} {'rounds':>8} {'messages':>10} "
            f"{'words':>10} {'max link':>9} {'violations':>11}"
        ]
        for stats in self.phases():
            lines.append(
                f"{stats.name:<28} {stats.rounds:>8} {stats.messages:>10} "
                f"{stats.words:>10} {stats.max_link_words:>9} "
                f"{stats.violations:>11}"
            )
        return "\n".join(lines)
