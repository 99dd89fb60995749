"""One run's outcome and how it is printed."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from . import spec
from .stats import Tally


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    trace: bool
    tally: Tally
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: Per-layer values this workload measured; layers it does not
    #: exercise are reported as 0.
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Context printed before the result line: sample counts, set-up
    #: runs, steal, environment.
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.tally.wrong == 0 and self.tally.attempted > 0

    def metrics(self) -> Dict[str, Dict[str, object]]:
        declared = spec.PER_LAYER if self.trace else spec.END_TO_END
        values = self.per_layer if self.trace else self.end_to_end
        return {
            m.name: {"value": float(values.get(m.name, 0.0)),
                     "unit": m.unit}
            for m in declared
        }

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": self.metrics(),
        }, sort_keys=False)

    def report_lines(self) -> List[str]:
        """Human-readable lines: every metric by name with its unit."""
        lines = [f"perfbench {self.workload} seed={self.seed} "
                 f"seconds={self.seconds:g} trace={int(self.trace)}"]
        for key in ("env", "noise"):
            if key in self.notes:
                lines.append(f"{key} " + json.dumps(self.notes[key],
                                                    sort_keys=True))
        rest = {k: v for k, v in self.notes.items()
                if k not in ("env", "noise")}
        lines.append("notes " + json.dumps(rest, sort_keys=True))
        lines.append("outcomes " + json.dumps(self.tally.as_dict(),
                                              sort_keys=True))
        if self.tally.mismatches:
            lines.append("MISMATCH " + "; ".join(self.tally.mismatches))
        units = spec.units(spec.END_TO_END + spec.PER_LAYER)
        shown = dict(self.end_to_end)
        if self.trace:
            shown = {f"traced-run {k}": v for k, v in shown.items()}
            shown.update(self.per_layer)
        width = max(len(k) for k in shown) if shown else 0
        for name, value in shown.items():
            unit = units.get(name.replace("traced-run ", ""), "")
            lines.append(f"  {name:<{width}}  {value:>14.6g} {unit}")
        return lines
