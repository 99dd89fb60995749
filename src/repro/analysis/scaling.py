"""Scaling analysis: exponent fits, and the numbers paper claims bound.

The paper's headline claims are asymptotic; at finite n we verify the
*shape*: the measured rounds of Theorem 1 should grow like n^{2/3}
(log-log slope ≈ 2/3 up to polylog drift) and carry no h_st term, while
the baselines grow with h_st.  The cell helpers below reduce one seed's
scenario cells to the numbers the catalog's claims bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Mapping, Sequence, Tuple

#: One experiment cell: its parameter point and metrics, flattened.
Cell = Mapping[str, object]


@dataclass
class PowerLawFit:
    """Least-squares fit of rounds ≈ C · n^exponent on log-log axes."""

    exponent: float
    coefficient: float
    r_squared: float
    points: List[Tuple[float, float]]

    def predict(self, n: float) -> float:
        return self.coefficient * n ** self.exponent


def fit_power_law(ns: Sequence[float],
                  values: Sequence[float]) -> PowerLawFit:
    """Fit values ≈ C·n^a by linear regression in log space."""
    if len(ns) != len(values) or len(ns) < 2:
        raise ValueError("need at least two matched samples")
    xs = [math.log(x) for x in ns]
    ys = [math.log(max(1e-12, y)) for y in values]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2
                 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return PowerLawFit(
        exponent=slope,
        coefficient=math.exp(intercept),
        r_squared=r2,
        points=list(zip(ns, values)),
    )


def _cell_fit(cells: Sequence[Cell], x: str, y: str,
              log2_corrected: bool = False) -> PowerLawFit:
    xs = [float(cell[x]) for cell in cells]
    ys = [float(cell[y]) for cell in cells]
    if log2_corrected:
        ys = [value / math.log(at) ** 2 for at, value in zip(xs, ys)]
    return fit_power_law(xs, ys)


def power_law_slope(cells: Sequence[Cell], x: str, y: str,
                    log2_corrected: bool = False) -> float:
    """Log-log slope of ``y`` against ``x`` over ``cells``.

    ``log2_corrected`` divides ``y`` by ln(x)² first.  Theorem 1's
    dominant term at small n is the |L|² broadcast with
    |L| = Θ(n^{1/3} log n), i.e. n^{2/3}·log²n, and at n ≤ 600 the log²
    factor alone adds ≈ 2/ln(n) ≈ 0.4 to the raw slope.
    """
    return _cell_fit(cells, x, y, log2_corrected).exponent


def power_law_r2(cells: Sequence[Cell], x: str, y: str) -> float:
    """R² of the log-log fit of ``y`` against ``x``."""
    return _cell_fit(cells, x, y).r_squared


def worst(cells: Sequence[Cell],
          per_cell: Callable[[Cell], float]) -> float:
    """The largest per-cell value: the cell closest to an upper bound."""
    return max(per_cell(cell) for cell in cells)


def smallest_step(cells: Sequence[Cell], axis: str, key: str,
                  descending: bool = False) -> float:
    """The smallest change in ``key`` between neighbours along ``axis``.

    Cells are ordered by ``axis``, largest first with ``descending``.
    A result of at least 0 says ``key`` never falls along that order;
    of at least 1, that an integer ``key`` strictly grows.
    """
    ordered = sorted(cells, key=lambda cell: cell[axis],
                     reverse=descending)
    return min(after[key] - before[key]
               for before, after in zip(ordered, ordered[1:]))
