import numpy as np
import pytest


def draw_disc_tuple(rng, n, radius=0.9, min_gap=0.02):
    """Random n-tuple in the disc of given radius with pairwise gaps.

    The gap keeps determinant/Vandermonde cancellation away from the
    properties under test, which hold identically in exact arithmetic.
    """
    while True:
        pts = radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        ok = all(
            abs(pts[i] - pts[j]) >= min_gap
            for i in range(n)
            for j in range(i + 1, n)
        )
        if ok:
            return tuple(complex(c) for c in pts)


def expand_clusters(nodes, mults):
    """The tuple with each node repeated by its multiplicity."""
    return tuple(u for u, m in zip(nodes, mults) for _ in range(m))


def multiset_close(a, b, tol):
    """Greedy nearest matching of two same-length complex multisets."""
    remaining = list(b)
    for x in a:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - x))
        if abs(remaining[best] - x) > tol:
            return False
        remaining.pop(best)
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
