"""Tests for the pipelined path-sweep engine (congest.pipeline)."""

import pytest

from repro.congest.network import CongestNetwork
from repro.congest.pipeline import SweepTask, run_path_sweeps


def path_net(n):
    return CongestNetwork(n, [(i, i + 1) for i in range(n - 1)])


def prefix_min_reference(values, start, end):
    """The running minimum after every stop, in walk order."""
    best = values[start]
    out = [best]
    step = 1 if end >= start else -1
    for pos in range(start + step, end + step, step):
        best = min(best, values[pos])
        out.append(best)
    return out


class TestSweepBasics:
    def test_rightward_prefix_min(self):
        n = 8
        net = path_net(n)
        values = [5, 3, 7, 2, 9, 4, 8, 1]
        task = SweepTask(
            key="m", start=0, end=n - 1, init=values[0],
            combine=lambda pos, v: min(v, values[pos]), deposit=True)
        results = run_path_sweeps(net, list(range(n)), [task])
        assert results["m"].trace == prefix_min_reference(
            values, 0, n - 1)
        assert results["m"].final == 1

    def test_leftward_sweep(self):
        n = 6
        net = path_net(n)
        values = [4, 1, 6, 2, 8, 3]
        task = SweepTask(
            key="s", start=n - 1, end=0, init=values[n - 1],
            combine=lambda pos, v: min(v, values[pos]), deposit=True)
        results = run_path_sweeps(net, list(range(n)), [task])
        assert results["s"].trace == prefix_min_reference(
            values, n - 1, 0)

    def test_zero_length_sweep_returns_init(self):
        net = path_net(3)
        task = SweepTask(key="z", start=1, end=1, init=42,
                         combine=lambda p, v: 0, deposit=True)
        results = run_path_sweeps(net, [0, 1, 2], [task])
        assert results["z"].final == 42
        assert results["z"].trace == [42]

    def test_out_of_bounds_task_rejected(self):
        net = path_net(3)
        task = SweepTask(key="x", start=0, end=5, init=0,
                         combine=lambda p, v: v)
        with pytest.raises(ValueError):
            run_path_sweeps(net, [0, 1, 2], [task])

    def test_empty_tasks_cost_nothing(self):
        net = path_net(3)
        assert run_path_sweeps(net, [0, 1, 2], []) == {}
        assert net.rounds == 0


class TestPipelining:
    def test_many_sweeps_share_links(self):
        # T sweeps over an L-link path must take O(L + T), not O(L·T).
        n, t = 15, 10
        net = path_net(n)
        tasks = [
            SweepTask(key=("sum", j), start=0, end=n - 1, init=j,
                      combine=lambda pos, v: v + 1)
            for j in range(t)
        ]
        results = run_path_sweeps(net, list(range(n)), tasks)
        for j in range(t):
            assert results[("sum", j)].final == j + (n - 1)
        assert net.rounds <= (n - 1) + t + 2
        assert net.rounds < t * (n - 1)

    def test_bidirectional_sweeps_coexist(self):
        n = 10
        net = path_net(n)
        tasks = [
            SweepTask(key="right", start=0, end=n - 1, init=0,
                      combine=lambda pos, v: v + 1),
            SweepTask(key="left", start=n - 1, end=0, init=0,
                      combine=lambda pos, v: v + 1),
        ]
        results = run_path_sweeps(net, list(range(n)), tasks)
        assert results["right"].final == n - 1
        assert results["left"].final == n - 1
        # Opposite directions use distinct link directions: no stacking.
        assert net.rounds <= n

    def test_congestion_bounded(self):
        n, t = 12, 9
        net = path_net(n)
        tasks = [
            SweepTask(key=j, start=0, end=n - 1, init=0,
                      combine=lambda pos, v: v)
            for j in range(t)
        ]
        run_path_sweeps(net, list(range(n)), tasks)
        # One token (tag + value) per link per round.
        assert net.ledger.max_link_words <= 3

    def test_disjoint_segments_run_in_parallel(self):
        n = 20
        net = path_net(n)
        tasks = [
            SweepTask(key="a", start=0, end=9, init=0,
                      combine=lambda pos, v: v + 1),
            SweepTask(key="b", start=10, end=19, init=0,
                      combine=lambda pos, v: v + 1),
        ]
        run_path_sweeps(net, list(range(n)), tasks)
        assert net.rounds <= 10

    def test_combine_sees_positions_in_order(self):
        n = 7
        net = path_net(n)
        seen = []

        def combine(pos, v):
            seen.append(pos)
            return v

        task = SweepTask(key="o", start=2, end=6, init=0, combine=combine)
        run_path_sweeps(net, list(range(n)), [task])
        assert seen == [3, 4, 5, 6]
