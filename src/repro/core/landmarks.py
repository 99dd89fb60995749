"""Definition 5.2 — landmark sampling, and the Lemma 5.3 property.

Landmarks are sampled independently with probability c·log(n)/n^{2/3}
(more generally c·log(n)/ζ for a configurable threshold), so that every
ζ-vertex stretch of any long detour contains a landmark with probability
1 − n^{−Ω(c)} (Lemma 5.3).

Tests that need *deterministic* exactness pass an explicit landmark set
(e.g. every vertex) instead of sampling; the solvers accept either.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence


def landmark_probability(n: int, zeta: int, c: float = 2.0) -> float:
    """The Definition 5.2 sampling probability, clamped to [0, 1]."""
    if n <= 1:
        return 1.0
    return min(1.0, c * math.log(n) / max(1, zeta))


def sample_landmarks(
    n: int,
    zeta: int,
    c: float = 2.0,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> List[int]:
    """Sample the landmark set L ⊆ V (Definition 5.2)."""
    if rng is None:
        rng = random.Random(seed)
    p = landmark_probability(n, zeta, c)
    return [v for v in range(n) if rng.random() < p]


def landmark_set(
    n: int,
    zeta: int,
    landmarks: Optional[Sequence[int]] = None,
    c: float = 2.0,
    seed: int = 0,
) -> List[int]:
    """The landmark set a long-detour stage runs on: ``landmarks``
    sorted and without repeats, or one Definition 5.2 sample."""
    if landmarks is None:
        return sample_landmarks(n, zeta, c=c, seed=seed)
    return sorted(set(landmarks))


def expected_landmark_count(n: int, zeta: int, c: float = 2.0) -> float:
    """E|L| = n · p — Õ(n^{1/3}) at the paper's ζ = n^{2/3}."""
    return n * landmark_probability(n, zeta, c)


def segment_hits_landmark(
    vertices: Sequence[int],
    landmarks: Sequence[int],
) -> bool:
    """Whether a vertex stretch contains a landmark (Lemma 5.3 check)."""
    members = set(landmarks)
    return any(v in members for v in vertices)
