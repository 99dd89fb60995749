"""The standard scenario catalog.

Every experimental regime the repository knows about is registered here
as a declarative :class:`~repro.runtime.registry.Scenario`: the exact
Theorem 1 solver across topologies (including the expander and
power-law families), Table 1 and the h_st sweep against the
MR24b/trivial baselines, the Theorem 3 (1+eps) sweeps over eps and
weight scale, the zeta and landmark-density ablations, 2-SiSP, the
undirected extension, the Section 6 lower-bound constructions, fault
injection under a strict bandwidth budget, and the serving-tier query
workloads (registered by :mod:`repro.serve.workload`).

Each paper claim is declared once, as a :class:`Claim` on the scenario
whose full grid measures it; ``repro suite run`` checks it on every
seed.

Run functions are plain module-level functions taking ``(params, seed)``
and returning a flat metrics dict, so worker processes can re-import
them by scenario name.  Keep cell sizes modest: a full ``repro suite
run`` should finish in tens of seconds, a ``--smoke`` run in seconds.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..analysis.scaling import (
    Cell,
    power_law_r2,
    power_law_slope,
    smallest_step,
    worst,
)
from ..congest.network import DEFAULT_FABRIC
from .measure import measure_algorithm
from .registry import Claim, scenario

Params = Dict[str, object]


def _fabric(params: Params) -> str:
    """Exchange engine for this cell (default ``DEFAULT_FABRIC``).

    ``repro suite run --fabric ...`` injects a ``fabric`` key into
    every cell's parameter point; scenarios thread it through to the
    solvers so one flag re-runs the whole catalog on another engine.
    """
    return str(params.get("fabric", DEFAULT_FABRIC))


# -- exact RPaths (Theorem 1) across topologies ------------------------------

@scenario(
    "exact-random",
    params=[{"n": 40}, {"n": 64}],
    seeds=[0, 1],
    smoke_params=[{"n": 24}],
    description="Theorem 1 on sparse random digraphs (small D, small "
                "h_st: the trivial baseline's favourite regime)",
    tags=("exact", "theorem1"),
)
def run_exact_random(params: Params, seed: int):
    from ..graphs.generators import random_instance
    inst = random_instance(int(params["n"]), seed=seed)
    return measure_algorithm(inst, "theorem1", seed=seed,
                             fabric=_fabric(params)).metrics()


@scenario(
    "exact-chords",
    params=[{"hops": 32}, {"hops": 64}, {"hops": 128}, {"hops": 256}],
    seeds=[0, 1],
    smoke_params=[{"hops": 12}],
    description="Theorem 1 on the h_st = Theta(n) chords+hub family "
                "(D = 2): rounds grow like n^{2/3} up to polylog",
    tags=("exact", "theorem1"),
    # The dominant term here is the |L|^2 broadcast, n^{2/3} log^2 n:
    # the log^2 factor alone adds ~0.4 to the raw slope at these sizes.
    claims=(
        Claim("raw slope of rounds vs n",
              lambda cells: power_law_slope(cells, "n", "rounds"),
              low=0.45, high=1.30),
        Claim("log^2-corrected slope of rounds vs n",
              lambda cells: power_law_slope(cells, "n", "rounds",
                                            log2_corrected=True),
              low=0.40, high=1.00),
        Claim("R^2 of the rounds-vs-n fit",
              lambda cells: power_law_r2(cells, "n", "rounds"),
              low=0.9),
    ),
)
def run_exact_chords(params: Params, seed: int):
    from ..graphs.generators import path_with_chords_instance
    inst = path_with_chords_instance(
        int(params["hops"]), seed=seed, overlay_hub=True)
    return measure_algorithm(inst, "theorem1", seed=seed,
                             fabric=_fabric(params)).metrics()


@scenario(
    "exact-grid",
    params=[{"rows": 4, "cols": 8}, {"rows": 5, "cols": 10}],
    seeds=[0],
    smoke_params=[{"rows": 3, "cols": 5}],
    description="Theorem 1 on directed grids (deterministic +2-hop "
                "detour ground truth)",
    tags=("exact", "theorem1", "topology"),
)
def run_exact_grid(params: Params, seed: int):
    from ..graphs.generators import grid_instance
    inst = grid_instance(int(params["rows"]), int(params["cols"]))
    return measure_algorithm(inst, "theorem1", seed=seed,
                             fabric=_fabric(params)).metrics()


@scenario(
    "exact-layered",
    params=[{"layers": 6, "width": 3}, {"layers": 8, "width": 4}],
    seeds=[0, 1],
    smoke_params=[{"layers": 4, "width": 2}],
    description="Theorem 1 on leveled DAGs where every s-t path is "
                "shortest and replacement paths abound",
    tags=("exact", "theorem1", "topology"),
)
def run_exact_layered(params: Params, seed: int):
    from ..graphs.generators import layered_instance
    inst = layered_instance(
        int(params["layers"]), int(params["width"]), seed=seed)
    return measure_algorithm(inst, "theorem1", seed=seed,
                             fabric=_fabric(params)).metrics()


@scenario(
    "topo-expander",
    params=[{"n": 40, "degree": 4}, {"n": 64, "degree": 4}],
    seeds=[0, 1],
    smoke_params=[{"n": 24, "degree": 3}],
    description="Theorem 1 on near-regular expander-style digraphs "
                "(logarithmic D, dense detour structure)",
    tags=("exact", "theorem1", "topology"),
)
def run_topo_expander(params: Params, seed: int):
    from ..graphs.generators import expander_instance
    inst = expander_instance(
        int(params["n"]), degree=int(params["degree"]), seed=seed)
    return measure_algorithm(inst, "theorem1", seed=seed,
                             fabric=_fabric(params)).metrics()


@scenario(
    "topo-powerlaw",
    params=[{"n": 40, "attach": 2}, {"n": 64, "attach": 2}],
    seeds=[0, 1],
    smoke_params=[{"n": 24, "attach": 2}],
    description="Theorem 1 on preferential-attachment power-law "
                "digraphs (hub-dominated congestion)",
    tags=("exact", "theorem1", "topology"),
)
def run_topo_powerlaw(params: Params, seed: int):
    from ..graphs.generators import power_law_instance
    inst = power_law_instance(
        int(params["n"]), attach=int(params["attach"]), seed=seed)
    return measure_algorithm(inst, "theorem1", seed=seed,
                             fabric=_fabric(params)).metrics()


# -- Table 1 and the h_st sweep: Theorem 1 vs MR24b vs trivial ---------------

TABLE1_ALGORITHMS = ("theorem1", "mr24b", "trivial")


def _hst_slope(cells: Sequence[Cell], algorithm: str) -> float:
    """Log-log slope of one algorithm's rounds against h_st."""
    return power_law_slope(
        [cell for cell in cells if cell["algorithm"] == algorithm],
        "hop_count", "rounds")


@scenario(
    "table1",
    params=[{"family": family, "size": size, "algorithm": algorithm}
            for family, size in (("random", 96), ("random", 192),
                                 ("chords+hub", 48), ("chords+hub", 96))
            for algorithm in TABLE1_ALGORITHMS],
    seeds=[1, 2],
    smoke_params=[{"family": "random", "size": 24, "algorithm": algorithm}
                  for algorithm in TABLE1_ALGORITHMS],
    description="Table 1 landscape: Theorem 1, MR24b and trivial, each "
                "exact, on small-h_st random digraphs and on chords+hub",
    tags=("exact", "theorem1", "baseline"),
)
@scenario(
    "hst-sweep",
    params=[{"family": "chords", "size": hops, "algorithm": algorithm}
            for hops in (24, 48, 96, 192)
            for algorithm in TABLE1_ALGORITHMS],
    seeds=[0, 1],
    smoke_params=[{"family": "chords", "size": 8, "algorithm": algorithm}
                  for algorithm in TABLE1_ALGORITHMS],
    description="Rounds vs h_st on the chords family (questions Q1/Q2): "
                "Theorem 1 has no h_st term, MR24b and trivial do",
    tags=("theorem1", "baseline", "sweep"),
    # Theorem 1 rides n^{2/3} polylog (~1.0 raw at these sizes); MR24b
    # adds the sqrt(n h_st) broadcast; trivial is h_st x SSSP, about
    # quadratic here.
    claims=(
        Claim("theorem1 slope vs h_st",
              lambda cells: _hst_slope(cells, "theorem1"), high=1.2),
        Claim("mr24b minus theorem1 slope",
              lambda cells: (_hst_slope(cells, "mr24b")
                             - _hst_slope(cells, "theorem1")),
              low=0.0),
        Claim("trivial minus mr24b slope",
              lambda cells: (_hst_slope(cells, "trivial")
                             - _hst_slope(cells, "mr24b")),
              low=0.0),
        Claim("trivial slope vs h_st",
              lambda cells: _hst_slope(cells, "trivial"), low=1.5),
        Claim("trivial minus theorem1 slope",
              lambda cells: (_hst_slope(cells, "trivial")
                             - _hst_slope(cells, "theorem1")),
              low=0.5),
    ),
)
def run_table1(params: Params, seed: int):
    """One of the three Table 1 algorithms on one instance."""
    from ..graphs.generators import path_with_chords_instance, random_instance
    family, size = params["family"], int(params["size"])
    if family == "random":
        inst = random_instance(size, seed=seed)
    else:
        inst = path_with_chords_instance(
            size, seed=seed, overlay_hub=family == "chords+hub")
    return measure_algorithm(inst, str(params["algorithm"]), seed=seed,
                             fabric=_fabric(params)).metrics()


# -- approximate RPaths (Theorem 3) sweeps -----------------------------------

@scenario(
    "apx-eps-sweep",
    params=[{"n": 32, "epsilon": 0.5},
            {"n": 32, "epsilon": 0.25},
            {"n": 32, "epsilon": 0.1}],
    seeds=[0, 1],
    smoke_params=[{"n": 20, "epsilon": 0.5}],
    description="Theorem 3 (1+eps) sandwich and round cost as eps "
                "shrinks on weighted random digraphs",
    tags=("approx", "theorem3", "sweep"),
    claims=(
        Claim("smallest rounds rise as eps shrinks",
              lambda cells: smallest_step(cells, "epsilon", "rounds",
                                          descending=True),
              low=1),
    ),
)
def run_apx_eps_sweep(params: Params, seed: int):
    from ..graphs.generators import random_instance
    inst = random_instance(int(params["n"]), seed=seed, weighted=True)
    return measure_algorithm(
        inst, "apx", seed=seed, fabric=_fabric(params),
        epsilon=float(params["epsilon"])).metrics()


@scenario(
    "apx-weight-scale",
    params=[{"n": 28, "max_weight": 4},
            {"n": 28, "max_weight": 64},
            {"n": 28, "max_weight": 512}],
    seeds=[0, 1],
    smoke_params=[{"n": 18, "max_weight": 8}],
    description="Theorem 3 weight-scale sweep: the scale ladder grows "
                "with log(max weight), the guarantee must not",
    tags=("approx", "theorem3", "sweep"),
)
def run_apx_weight_scale(params: Params, seed: int):
    from ..graphs.generators import random_instance
    inst = random_instance(
        int(params["n"]), seed=seed, weighted=True,
        max_weight=int(params["max_weight"]))
    return measure_algorithm(
        inst, "apx", seed=seed, epsilon=0.25,
        fabric=_fabric(params)).metrics()


# -- ablations over the paper's two tuning knobs -----------------------------

@scenario(
    "ablation-zeta",
    params=[{"hops": 96, "zeta": zeta} for zeta in (4, 8, 16, 35, 64)],
    seeds=[1, 2],
    smoke_params=[{"hops": 16, "zeta": 4}],
    description="Detour threshold ablation on chords+hub (35 is "
                "default_zeta(n) here): the short stage costs ~2 zeta "
                "rounds, the long stage falls as zeta grows",
    tags=("ablation", "theorem1"),
    claims=(
        Claim("smallest short-stage rise as zeta grows",
              lambda cells: smallest_step(cells, "zeta", "short_rounds"),
              low=0),
    ),
)
def run_ablation_zeta(params: Params, seed: int):
    from ..graphs.generators import path_with_chords_instance
    inst = path_with_chords_instance(
        int(params["hops"]), seed=seed, overlay_hub=True)
    return measure_algorithm(
        inst, "theorem1", seed=seed, fabric=_fabric(params),
        zeta=int(params["zeta"]), landmark_c=3.0).metrics()


@scenario(
    "ablation-landmarks",
    params=[{"hops": 64, "c": c} for c in (0.25, 1.0, 2.0, 4.0)],
    seeds=[0, 1, 2],
    smoke_params=[{"hops": 16, "c": 2.0}],
    description="Landmark density ablation on chords+hub (Definition "
                "5.2 rate c log(n)/zeta): exact on every seed at c >= 2",
    tags=("ablation", "theorem1"),
)
def run_ablation_landmarks(params: Params, seed: int):
    from ..graphs.generators import path_with_chords_instance
    c = float(params["c"])
    inst = path_with_chords_instance(
        int(params["hops"]), seed=seed, overlay_hub=True)
    metrics = measure_algorithm(inst, "theorem1", seed=seed,
                                fabric=_fabric(params),
                                landmark_c=c).metrics()
    # Exactness is promised (w.h.p.) from c = 2 on; below it a cell
    # records whether it was exact without failing the run.
    metrics["exact"] = metrics["correct"]
    metrics["correct"] = bool(metrics["exact"] or c < 2.0)
    return metrics


# -- 2-SiSP and the undirected extension -------------------------------------

@scenario(
    "two-sisp",
    params=[{"family": "double-path", "size": 10},
            {"family": "random", "size": 40}],
    seeds=[0, 1],
    smoke_params=[{"family": "double-path", "size": 6}],
    description="Corollary 6.2: 2-SiSP = RPaths + O(D) aggregation, "
                "checked against the centralized 2-SiSP length",
    tags=("exact", "two-sisp"),
)
def run_two_sisp(params: Params, seed: int):
    from ..graphs.generators import double_path_instance, random_instance
    if params["family"] == "double-path":
        inst = double_path_instance(int(params["size"]), extra=2)
    else:
        inst = random_instance(int(params["size"]), seed=seed)
    return measure_algorithm(inst, "two-sisp", seed=seed,
                             fabric=_fabric(params)).metrics()


@scenario(
    "undirected-extension",
    params=[{"n": 36, "weighted": False}, {"n": 36, "weighted": True}],
    seeds=[0, 1],
    smoke_params=[{"n": 20, "weighted": False}],
    description="Undirected RPaths in O(T_SSSP + h_st + D) rounds "
                "(the [HS01]/[MMG89] structure)",
    tags=("extension", "undirected"),
)
def run_undirected(params: Params, seed: int):
    from ..extensions.undirected import random_undirected_instance
    inst = random_undirected_instance(
        int(params["n"]), seed=seed, weighted=bool(params["weighted"]))
    return measure_algorithm(inst, "undirected", seed=seed,
                             fabric=_fabric(params)).metrics()


def _undirected(cells: Sequence[Cell]) -> Sequence[Cell]:
    return [cell for cell in cells if cell["algorithm"] == "undirected"]


def _directed_margin(cells: Sequence[Cell]) -> int:
    """Fewest rounds Theorem 1 spends above the undirected solver on
    any one ladder."""
    rounds = {(cell["rungs"], cell["algorithm"]): cell["rounds"]
              for cell in cells}
    return min(rounds[rungs, "theorem1"] - rounds[rungs, "undirected"]
               for rungs, algorithm in rounds if algorithm == "theorem1")


@scenario(
    "undirected-ladder",
    params=[{"rungs": rungs, "algorithm": algorithm}
            for rungs in (16, 32, 64, 128)
            for algorithm in ("undirected", "theorem1")],
    seeds=[0, 1],
    smoke_params=[{"rungs": 8, "algorithm": "undirected"}],
    description="Undirected RPaths on ladders (D ~ h_st): rounds "
                "additive in h_st with small constants, and below the "
                "directed Theorem 1 pipeline on the same ladder",
    tags=("extension", "undirected"),
    # Additive in h_st with small constants: ~9 rounds per hop, two
    # SSSPs over a graph of diameter ~h_st plus the aggregation.
    claims=(
        Claim("undirected slope vs h_st",
              lambda cells: power_law_slope(
                  _undirected(cells), "hop_count", "rounds"),
              low=0.7, high=1.3),
        Claim("undirected rounds - (12 h_st + 60), worst",
              lambda cells: worst(
                  _undirected(cells),
                  lambda cell: (cell["rounds"]
                                - 12 * cell["hop_count"] - 60)),
              high=0),
        Claim("theorem1 - undirected rounds, fewest",
              _directed_margin, low=1),
    ),
)
def run_undirected_ladder(params: Params, seed: int):
    from ..extensions.undirected import ladder_instance
    inst = ladder_instance(int(params["rungs"]))
    algorithm = str(params["algorithm"])
    # The directed pipeline samples landmarks densely, as in the
    # exactness tests: the comparison is against an exact Theorem 1.
    kwargs = {"landmark_c": 3.0} if algorithm == "theorem1" else {}
    return measure_algorithm(inst, algorithm, seed=seed,
                             fabric=_fabric(params), **kwargs).metrics()


# -- lower bound and robustness ----------------------------------------------

@scenario(
    "lowerbound-hard",
    params=[{"k": 2, "d": 2, "p": 1}, {"k": 3, "d": 2, "p": 1}],
    seeds=[0, 1],
    smoke_params=[{"k": 2, "d": 2, "p": 1}],
    description="Section 6 hard instance G(k,d,p): Lemma 6.8 "
                "dichotomy plus the disjointness reduction",
    tags=("lowerbound",),
)
def run_lowerbound_hard(params: Params, seed: int):
    import random as _random

    from ..lowerbound import (
        build_hard_instance,
        decide_disjointness_via_two_sisp,
        verify_correspondence,
    )
    rng = _random.Random(seed)
    k = int(params["k"])
    matrix = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
    x = [rng.randint(0, 1) for _ in range(k * k)]
    hard = build_hard_instance(
        k, int(params["d"]), int(params["p"]), matrix, x)
    report = verify_correspondence(hard)
    xx = [rng.randint(0, 1) for _ in range(k * k)]
    yy = [rng.randint(0, 1) for _ in range(k * k)]
    red = decide_disjointness_via_two_sisp(
        xx, yy, k, d=int(params["d"]), p=int(params["p"]),
        use_oracle_knowledge=True, fabric=_fabric(params))
    return {
        "n": hard.n,
        "m": len(hard.instance.edges),
        "hop_count": hard.instance.hop_count,
        "rounds": red.rounds,
        "messages": red.messages,
        "words": red.words,
        "max_link_words": red.max_link_words,
        "violations": red.violations,
        "correct": bool(report.holds and red.correct),
        "optimal_length": report.optimal_length,
        "hit_count": report.hit_count,
    }


@scenario(
    "fault-injection",
    params=[{"rows": 3, "cols": 6, "bandwidth": 8}],
    seeds=[0, 1],
    smoke_params=[{"rows": 3, "cols": 5, "bandwidth": 8}],
    description="Theorem 1 under a strict per-link word budget: zero "
                "violations, and genuine overloads must raise",
    tags=("robustness",),
)
def run_fault_injection(params: Params, seed: int):
    from ..congest.errors import BandwidthExceededError
    from ..congest.network import CongestNetwork
    from ..graphs.generators import grid_instance

    inst = grid_instance(int(params["rows"]), int(params["cols"]))
    meas = measure_algorithm(
        inst, "theorem1", seed=seed, fabric=_fabric(params),
        landmarks=list(range(inst.n)),
        bandwidth_words=int(params["bandwidth"]))
    metrics = meas.metrics()
    # The second half of the scenario: a genuinely overloaded strict
    # network must fail loudly, not drop words.
    net = CongestNetwork(2, [(0, 1)], bandwidth_words=1, strict=True)
    try:
        net.exchange({0: [(1, (1, 2, 3, 4))]})
        detected = False
    except BandwidthExceededError:
        detected = True
    metrics["overload_detected"] = detected
    metrics["correct"] = bool(
        metrics["correct"] and metrics["violations"] == 0 and detected)
    return metrics


# -- large-n kernel cells (vector fabric) ------------------------------------

@scenario(
    "scaling-vector",
    params=[{"n": 2048, "k": 8, "hop_limit": 16}],
    seeds=[0],
    smoke_params=[{"n": 192, "k": 4, "hop_limit": 8}],
    description="Kernel-covered primitives (k-source + pruned hop-BFS) "
                "on an n=2048 expander — a cell size the vector fabric "
                "unlocks, oracle-checked against centralized BFS",
    tags=("scaling", "vector"),
)
def run_scaling_vector(params: Params, seed: int):
    from collections import deque

    from ..congest import INF, multi_source_hop_bfs
    from ..core.hop_bfs import pruned_max_hop_bfs
    from ..graphs.generators import expander_instance

    n = int(params["n"])
    k = int(params["k"])
    hop_limit = int(params["hop_limit"])
    inst = expander_instance(n, degree=4, seed=seed)
    net = inst.build_network(fabric=_fabric(params))

    step = max(1, inst.n // k)
    sources = list(range(0, inst.n, step))[:k]
    dist = multi_source_hop_bfs(net, sources, hop_limit)
    seeds_map = {v: (i, i) for i, v in enumerate(inst.path)}
    tables = pruned_max_hop_bfs(
        net, seeds_map, hop_limit=hop_limit,
        avoid_edges=inst.path_edge_set(), record_for=inst.path)

    # Centralized oracle: hop-bounded BFS per source over the raw
    # adjacency (cheap next to the simulated execution).
    adj = inst.adjacency()
    correct = True
    for rank, s in enumerate(sources):
        want = [INF] * inst.n
        want[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = want[u] + 1
            if du > hop_limit:
                continue
            for v, _ in adj[u]:
                if want[v] >= INF:
                    want[v] = du
                    queue.append(v)
        if dist[rank] != want:
            correct = False
            break
    settled = sum(1 for row in tables.values()
                  for entry in row if entry is not None)
    ledger = net.ledger
    return {
        "n": inst.n,
        "m": inst.m,
        "hop_count": inst.hop_count,
        "rounds": ledger.rounds,
        "messages": ledger.messages,
        "words": ledger.words,
        "max_link_words": ledger.max_link_words,
        "violations": ledger.violations,
        "settled_entries": settled,
        "correct": bool(correct and settled > len(inst.path)),
    }


# -- serving-tier workloads ---------------------------------------------------
# The serve-* scenarios (uniform / zipf / adversarial / mixed query
# streams against the sharded oracle service) register themselves on
# import; pulling the module in here keeps the registry the single
# source of truth for `repro suite list` and worker re-imports.
from ..serve import workload as _serve_workload  # noqa: E402,F401

# -- dynamic-graph robustness -------------------------------------------------
# The dynamic-* scenarios (fault storms / regional failures / rolling
# maintenance against the live serving tier) register the incremental
# invalidation path as first-class, verified suite cells.
from ..dynamic import scenarios as _dynamic_scenarios  # noqa: E402,F401
