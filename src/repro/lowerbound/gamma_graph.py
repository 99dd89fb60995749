"""Section 6.2 — the graph family G(Γ, d, p) of Das Sarma et al. [DHK+11].

Γ paths of d^p vertices each, all attached to the leaves of a depth-p,
branching-d tree; the i-th leaf connects to the i-th vertex of every
path.  The designated communication endpoints are α = u^p_0 (leftmost
leaf) and β = u^p_{d^p−1} (rightmost leaf).

Figure 1 of the paper; Observation 6.3 (vertex count Θ(Γ d^p), diameter
2p + 2) is exposed as checkable predicates.  The measured diameter is the
communication graph's, ``CongestNetwork(g.n, g.edges).undirected_diameter()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

Name = Tuple  # symbolic vertex names, e.g. ("path", i, j) / ("tree", q, j)


@dataclass
class GammaGraph:
    """G(Γ, d, p) with symbolic-name bookkeeping.

    Attributes
    ----------
    gamma, d, p:
        The construction parameters.
    edges:
        Undirected edges as ordered (u, v) pairs of vertex ids.
    id_of / name_of:
        The symbolic-name ↔ id maps; path vertex v^i_j is
        ("path", i, j) (i ∈ [1, Γ], j ∈ [0, d^p−1]), tree vertex u^q_j is
        ("tree", q, j).
    alpha, beta:
        Ids of the distinguished leaves.
    """

    gamma: int
    d: int
    p: int
    edges: List[Tuple[int, int]]
    id_of: Dict[Name, int]
    name_of: Dict[int, Name] = field(default_factory=dict)
    alpha: int = -1
    beta: int = -1

    @property
    def n(self) -> int:
        return len(self.id_of)

    @property
    def path_vertex_count(self) -> int:
        return self.gamma * self.d ** self.p

    @property
    def tree_vertex_count(self) -> int:
        return (self.d ** (self.p + 1) - 1) // (self.d - 1)

    def expected_vertex_count(self) -> int:
        """Observation 6.3: Γ·d^p + (d^{p+1}−1)/(d−1)."""
        return self.path_vertex_count + self.tree_vertex_count

    def expected_diameter(self) -> int:
        """Observation 6.3: the diameter is 2p + 2."""
        return 2 * self.p + 2


def build_gamma_graph(gamma: int, d: int, p: int) -> GammaGraph:
    """Construct G(Γ, d, p) (Figure 1)."""
    if gamma < 1 or d < 2 or p < 1:
        raise ValueError("need Γ ≥ 1, d ≥ 2, p ≥ 1")
    width = d ** p
    id_of: Dict[Name, int] = {}

    def vid(name: Name) -> int:
        if name not in id_of:
            id_of[name] = len(id_of)
        return id_of[name]

    edges: List[Tuple[int, int]] = []

    # Tree T: u^q_j for q ∈ [0, p], j ∈ [0, d^q − 1].
    for q in range(p):
        for j in range(d ** q):
            parent = vid(("tree", q, j))
            for r in range(d):
                child = vid(("tree", q + 1, j * d + r))
                edges.append((parent, child))

    # Γ paths of width vertices.
    for i in range(1, gamma + 1):
        for j in range(width):
            vid(("path", i, j))
        for j in range(width - 1):
            edges.append((id_of[("path", i, j)],
                          id_of[("path", i, j + 1)]))

    # Leaf-to-path attachment: u^p_j — v^i_j for all i, j.
    for j in range(width):
        leaf = id_of[("tree", p, j)]
        for i in range(1, gamma + 1):
            edges.append((leaf, id_of[("path", i, j)]))

    graph = GammaGraph(
        gamma=gamma, d=d, p=p, edges=edges, id_of=id_of,
        name_of={v: k for k, v in id_of.items()},
        alpha=id_of[("tree", p, 0)],
        beta=id_of[("tree", p, width - 1)],
    )
    return graph
