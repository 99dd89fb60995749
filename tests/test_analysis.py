"""Tests for the analysis helpers (fits, claim values, tables)."""

import math

import pytest

from repro.analysis import (
    fit_power_law,
    format_records,
    format_table,
    power_law_r2,
    power_law_slope,
    smallest_step,
    worst,
)


class TestPowerLawFit:
    def test_recovers_exact_power(self):
        ns = [10, 20, 40, 80, 160]
        values = [3.0 * n ** (2 / 3) for n in ns]
        fit = fit_power_law(ns, values)
        assert abs(fit.exponent - 2 / 3) < 1e-9
        assert abs(fit.coefficient - 3.0) < 1e-6
        assert fit.r_squared > 0.999999

    def test_predict(self):
        fit = fit_power_law([1, 10, 100], [2, 20, 200])
        assert abs(fit.predict(50) - 100) < 1e-6

    def test_noisy_fit_reasonable(self):
        import random
        rng = random.Random(1)
        ns = [2 ** i for i in range(4, 12)]
        values = [n ** 0.5 * (1 + 0.1 * rng.random()) for n in ns]
        fit = fit_power_law(ns, values)
        assert 0.4 < fit.exponent < 0.6

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])


class TestClaimValues:
    """The cell helpers on hand-made cells (params + metrics, flat)."""

    def cells(self, exponent, log2=False):
        return [{"n": n, "rounds": 3.0 * n ** exponent
                 * (math.log(n) ** 2 if log2 else 1.0), "seed": 0}
                for n in (32, 64, 128, 256)]

    def test_slope_of_exact_power_law_is_its_exponent(self):
        assert power_law_slope(self.cells(2 / 3), "n", "rounds") == \
            pytest.approx(2 / 3)
        assert power_law_r2(self.cells(2 / 3), "n", "rounds") == \
            pytest.approx(1.0)

    def test_log2_correction_divides_out_the_log_factor(self):
        cells = self.cells(2 / 3, log2=True)
        raw = power_law_slope(cells, "n", "rounds")
        corrected = power_law_slope(cells, "n", "rounds",
                                    log2_corrected=True)
        assert corrected == pytest.approx(2 / 3)
        assert raw > corrected + 0.3

    def test_worst_is_the_largest_per_cell_value(self):
        cells = [{"rounds": 100, "h": 8}, {"rounds": 90, "h": 2}]
        assert worst(cells, lambda c: c["rounds"] - 12 * c["h"]) == 66

    def test_smallest_step_orders_cells_by_the_axis(self):
        cells = [{"eps": 0.1, "rounds": 50}, {"eps": 0.5, "rounds": 20},
                 {"eps": 0.25, "rounds": 30}]
        assert smallest_step(cells, "eps", "rounds") == -20
        assert smallest_step(cells, "eps", "rounds",
                             descending=True) == 10

    def test_smallest_step_sees_a_flat_stretch(self):
        cells = [{"z": z, "short": s}
                 for z, s in ((4, 7), (8, 15), (16, 15))]
        assert smallest_step(cells, "z", "short") == 0


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_float_rendering(self):
        assert "inf" in format_table(["x"], [[float("inf")]])

    def test_format_records_from_dicts(self):
        text = format_records(
            [{"a": 1, "b": 2}, {"a": 3}], ["a", "b"], title="R")
        lines = text.splitlines()
        assert lines[0] == "R"
        assert lines[-1].split() == ["3", "-"]  # missing field -> '-'

    def test_format_records_from_objects(self):
        class Row:
            a = 5
        assert "5" in format_records([Row()], ["a", "zz"])
