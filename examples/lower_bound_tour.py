#!/usr/bin/env python3
"""A guided tour of the Section 6 lower bound, executed for real.

1. Build the Das Sarma et al. scaffold G(Γ, d, p) and check
   Observation 6.3.
2. Build the paper's hard instance G(k, d, p, φ, M, x) for random
   (M, x) and verify the Lemma 6.8 correspondence: the replacement
   length for the i-th path edge is minimal iff x_i = 1 AND M_{φ(i)} = 1.
3. Decode Bob's matrix M back out of the replacement lengths — the
   information-theoretic heart of the Ω̃(n^{2/3}) argument.
4. Run the Lemma 6.9 reduction end-to-end: set disjointness decided by
   our own distributed 2-SiSP solver.

Run:  python examples/lower_bound_tour.py
"""

import random

from repro.lowerbound import (
    build_gamma_graph,
    build_hard_instance,
    decide_disjointness_via_two_sisp,
    decode_matrix_from_lengths,
    expected_optimal_length,
    verify_correspondence,
)
from repro.baselines import replacement_lengths
from repro.congest import CongestNetwork


def main() -> None:
    rng = random.Random(2025)

    # -- 1. the Figure 1 scaffold -------------------------------------------
    g = build_gamma_graph(gamma=4, d=2, p=3)
    print("G(Γ=4, d=2, p=3):")
    print(f"  vertices {g.n} (Observation 6.3 predicts "
          f"{g.expected_vertex_count()})")
    diameter = CongestNetwork(g.n, g.edges).undirected_diameter()
    print(f"  diameter {diameter} (bound 2p+2 = "
          f"{g.expected_diameter()})")

    # -- 2. the Figure 2 hard instance ---------------------------------------
    k, d, p = 3, 2, 1
    matrix = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
    x = [rng.randint(0, 1) for _ in range(k * k)]
    hard = build_hard_instance(k, d, p, matrix, x)
    print(f"\nG(k={k}, d={d}, p={p}, φ, M, x): n = {hard.n}, "
          f"h_st = k² = {k * k}")
    print(f"  Bob's matrix M = {matrix}")
    print(f"  Alice's gates x = {x}")

    report = verify_correspondence(hard)
    print(f"  L_opt = {report.optimal_length} "
          f"(= 3k²+2d^p+4 = {expected_optimal_length(k, d, p)})")
    print(f"  Lemma 6.8 dichotomy holds: {report.holds}")
    for i, (length, hit) in enumerate(zip(report.lengths, report.hits),
                                      start=1):
        marker = "MINIMAL" if hit else "longer "
        print(f"    edge {i}: |st ⋄ e| = {length:>3}  [{marker}]")

    # -- 3. decode M from the output ------------------------------------------
    full_x = build_hard_instance(k, d, p, matrix, [1] * (k * k))
    lengths = replacement_lengths(full_x.instance)
    decoded = decode_matrix_from_lengths(lengths, k, d, p)
    print(f"\n  with x ≡ 1, the RPaths output decodes M "
          f"exactly: {decoded == matrix}")

    # -- 4. the Lemma 6.9 reduction, end-to-end ----------------------------
    print("\nset disjointness via the distributed 2-SiSP solver:")
    for trial in range(3):
        xx = [rng.randint(0, 1) for _ in range(4)]
        yy = [rng.randint(0, 1) for _ in range(4)]
        rep = decide_disjointness_via_two_sisp(
            xx, yy, k=2, use_oracle_knowledge=True)
        print(f"  x={xx} y={yy}: disj={rep.expected} "
              f"decoded={rep.decided} "
              f"({'OK' if rep.correct else 'MISMATCH'}; "
              f"{rep.rounds} rounds on {rep.n} vertices)")


if __name__ == "__main__":
    main()
