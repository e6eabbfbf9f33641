"""Union-find (disjoint-set) with path compression and union by size.

The paper uses a *lock-free concurrent* union-find (Shun–Blelloch style) to
merge core cells while the cell graph is being built (Algorithm 3).  In this
reproduction the union-find holds one entry per core cell — orders of
magnitude fewer entries than points.  ClusterCore (``repro.core.cellgraph``)
uses it twice: inside each block of its one Spark round, over the block's
cells, to skip queries the block's own connected edges make redundant; and
on the Spark driver, to join the connected edges every block returns into
components.  Correctness is identical to the concurrent version; only the
parallel insertion is serialised, which is faithful at cell scale.
"""
from __future__ import annotations


class UnionFind:
    """Classic disjoint-set forest over the integers ``0..n-1``.

    ``find`` uses iterative path halving; ``union`` is by size.  Both are
    effectively O(α(n)) amortised.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.n_components = n

    def find(self, x: int) -> int:
        """Return the representative (root) of ``x``'s component."""
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]  # path halving
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the components of ``a`` and ``b``.

        Returns True if a merge happened (they were in different components).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def labels(self) -> list[int]:
        """Component label (root id) for every element."""
        return [self.find(i) for i in range(len(self.parent))]
