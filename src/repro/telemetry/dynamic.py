"""Mutation-kind names, importable here for the ``perfbench`` harness.

The kinds belong to :mod:`repro.dynamic.stream`; the dynamic-graph
metrics are declared in :mod:`repro.telemetry.schema`.
"""

from ..dynamic.stream import MUT_FAIL, MUT_HEAL, MUT_WEIGHT  # noqa: F401
