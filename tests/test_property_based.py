"""Property-based tests (hypothesis) on the core invariants.

Strategy: generate small leveled DAG instances (every s-t path has equal
hop count, so the planted chain is always a valid shortest path) plus
random extras, then assert the paper's guarantees against the
centralized oracle.
"""

import random as _random

from hypothesis import given, settings, strategies as st

from repro.baselines import replacement_lengths, two_sisp_length
from repro.congest.words import INF
from repro.core.rpaths import solve_rpaths
from repro.core.two_sisp import solve_two_sisp
from repro.graphs import layered_instance, random_instance
from repro.lowerbound import build_hard_instance, verify_correspondence


dag_params = st.tuples(
    st.integers(min_value=2, max_value=5),    # layers
    st.integers(min_value=1, max_value=4),    # width
    st.integers(min_value=0, max_value=10 ** 6),  # seed
)


@given(dag_params)
@settings(max_examples=25, deadline=None)
def test_rpaths_exact_on_random_dags(params):
    layers, width, seed = params
    instance = layered_instance(layers, width, seed=seed)
    report = solve_rpaths(instance, landmarks=list(range(instance.n)))
    assert report.lengths == replacement_lengths(instance)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=20, max_value=45))
@settings(max_examples=15, deadline=None)
def test_rpaths_exact_on_random_digraphs(seed, n):
    instance = random_instance(n, seed=seed)
    report = solve_rpaths(instance, landmarks=list(range(instance.n)))
    assert report.lengths == replacement_lengths(instance)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=18, max_value=32))
@settings(max_examples=8, deadline=None)
def test_apx_sandwich_on_random_weighted(seed, n):
    from repro.approx.apx_rpaths import solve_apx_rpaths
    instance = random_instance(n, seed=seed, weighted=True, max_weight=7)
    epsilon = 0.5
    report = solve_apx_rpaths(instance, epsilon=epsilon,
                              landmarks=list(range(instance.n)))
    truth = replacement_lengths(instance)
    for got, want in zip(report.lengths, truth):
        if want >= INF:
            assert got == float("inf")
        else:
            assert want - 1e-9 <= got <= (1 + epsilon) * want + 1e-9


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=15, deadline=None)
def test_lemma_6_8_on_random_bits(seed):
    rng = _random.Random(seed)
    k = 2
    matrix = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
    x = [rng.randint(0, 1) for _ in range(k * k)]
    hard = build_hard_instance(k, 2, 1, matrix, x)
    assert verify_correspondence(hard).holds


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_two_sisp_is_min_of_rpaths(seed, layers, width):
    instance = layered_instance(layers, width, seed=seed)
    report = solve_two_sisp(instance,
                            landmarks=list(range(instance.n)))
    assert report.length == two_sisp_length(instance)


@given(st.lists(st.integers(min_value=1, max_value=50),
                min_size=1, max_size=6),
       st.sampled_from([0.5, 0.25, 0.125]))
@settings(max_examples=40, deadline=None)
def test_rounding_observations_on_random_paths(weights, epsilon):
    """Observations 7.3/7.4 as a property over random weight vectors."""
    from fractions import Fraction
    from repro.approx.rounding import Scale, scale_length, subdivided_hops
    zeta = len(weights)
    r = sum(weights)
    d = 2
    while d < r:
        d *= 2
    scale = Scale(d=d, zeta=zeta, eps=Fraction(str(epsilon)))
    # 7.3: lengths never shrink.
    assert scale_length(weights, scale) >= r
    # 7.4: hop budget and (1+ε) stretch hold when r ∈ [d/2, d].
    if d // 2 <= r <= d:
        assert subdivided_hops(weights, scale) <= scale.hop_budget
        assert scale_length(weights, scale) <= (1 + Fraction(str(epsilon))) * r


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=3, max_value=14))
@settings(max_examples=20, deadline=None)
def test_sweep_engine_equals_sequential_reference(seed, length):
    """The pipelined sweep engine computes the same prefix-min as a
    plain loop, for random values and random sub-ranges."""
    from repro.congest.network import CongestNetwork
    from repro.congest.pipeline import SweepTask, run_path_sweeps

    rng = _random.Random(seed)
    values = [rng.randrange(100) for _ in range(length)]
    net = CongestNetwork(length,
                         [(i, i + 1) for i in range(length - 1)])
    start = rng.randrange(length)
    end = rng.randrange(length)
    task = SweepTask(
        key="t", start=start, end=end, init=values[start],
        combine=lambda pos, v: min(v, values[pos]), deposit=True)
    results = run_path_sweeps(net, list(range(length)), [task])
    step = 1 if end >= start else -1
    best = values[start]
    expect = [best]
    for pos in range(start + step, end + step, step):
        best = min(best, values[pos])
        expect.append(best)
    assert results["t"].trace == expect
