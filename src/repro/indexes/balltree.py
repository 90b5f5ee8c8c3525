"""Ball-tree for high-dimensional Euclidean threshold queries.

Section 3.2: "for image matching queries, where we compare features of two
images and threshold the similarity ... a data structure called a Ball-Tree
was the most effective at answering Euclidean threshold queries in
high-dimensional spaces [17]". This implementation follows the classic
construction:

* recursive splits along the direction between two far-apart points (a
  cheap approximation of the principal direction);
* each node stores the centroid and covering radius of its points;
* queries prune with the triangle inequality
  (``|q - center| > r + radius`` => skip the ball).

Build and probe costs grow non-linearly with size and dimension — the
phenomenon Figures 6 and 7 measure — because the covering radii of
high-dimensional balls overlap more, defeating pruning.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexError_


class BallTree:
    """Static Ball-tree over an (n, d) point matrix.

    Parameters
    ----------
    points:
        Float matrix, one row per item.
    ids:
        Optional payload ids (defaults to row numbers).
    leaf_size:
        Maximum points per leaf.
    """

    def __init__(
        self,
        points: np.ndarray,
        ids: list | np.ndarray | None = None,
        *,
        leaf_size: int = 16,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise IndexError_(f"points must be (n, d), got shape {points.shape}")
        if points.shape[0] == 0:
            raise IndexError_("cannot build a Ball-tree over zero points")
        if leaf_size < 1:
            raise IndexError_(f"leaf_size must be >= 1, got {leaf_size}")
        self.points = points
        self.n, self.dim = points.shape
        if ids is None:
            self.ids = np.arange(self.n)
        else:
            self.ids = np.asarray(ids, dtype=object)
            if len(self.ids) != self.n:
                raise IndexError_(
                    f"{len(self.ids)} ids for {self.n} points"
                )
        self.leaf_size = leaf_size
        # permutation order so each node owns a contiguous slice
        self._order = np.arange(self.n)
        # node arrays, filled by _build
        self._centers: list[np.ndarray] = []
        self._radii: list[float] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._lefts: list[int] = []
        self._rights: list[int] = []
        self.node_count = 0
        self._build(0, self.n)

    # -- construction -----------------------------------------------------

    def _new_node(self, start: int, end: int) -> int:
        chunk = self.points[self._order[start:end]]
        center = chunk.mean(axis=0)
        radius = float(np.sqrt(((chunk - center) ** 2).sum(axis=1).max()))
        node = self.node_count
        self.node_count += 1
        self._centers.append(center)
        self._radii.append(radius)
        self._starts.append(start)
        self._ends.append(end)
        self._lefts.append(-1)
        self._rights.append(-1)
        return node

    def _build(self, start: int, end: int) -> int:
        node = self._new_node(start, end)
        if end - start <= self.leaf_size:
            return node
        order_slice = self._order[start:end]
        chunk = self.points[order_slice]
        # two-far-points split direction
        anchor = chunk[0]
        d_anchor = ((chunk - anchor) ** 2).sum(axis=1)
        p1 = chunk[int(d_anchor.argmax())]
        d_p1 = ((chunk - p1) ** 2).sum(axis=1)
        p2 = chunk[int(d_p1.argmax())]
        direction = p2 - p1
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            # all points identical: force a leaf
            return node
        projections = chunk @ (direction / norm)
        median = np.median(projections)
        left_mask = projections <= median
        # guard degenerate splits (many ties at the median)
        if left_mask.all() or not left_mask.any():
            left_mask = projections < median
            if left_mask.all() or not left_mask.any():
                half = (end - start) // 2
                left_mask = np.zeros(end - start, dtype=bool)
                left_mask[np.argsort(projections)[:half]] = True
        reordered = np.concatenate(
            [order_slice[left_mask], order_slice[~left_mask]]
        )
        self._order[start:end] = reordered
        split = start + int(left_mask.sum())
        self._lefts[node] = self._build(start, split)
        self._rights[node] = self._build(split, end)
        return node

    # -- queries ------------------------------------------------------------

    def query_radius(self, query: np.ndarray, radius: float) -> list:
        """Ids of all points within Euclidean ``radius`` of ``query``."""
        query = self._check_query(query)
        if radius < 0:
            raise IndexError_(f"radius must be non-negative, got {radius}")
        out: list = []
        stack = [0]
        radius_sq = radius * radius
        while stack:
            node = stack.pop()
            gap = np.linalg.norm(query - self._centers[node])
            if gap > radius + self._radii[node]:
                continue
            left = self._lefts[node]
            if left < 0:
                idx = self._order[self._starts[node] : self._ends[node]]
                chunk = self.points[idx]
                dist_sq = ((chunk - query) ** 2).sum(axis=1)
                hits = idx[dist_sq <= radius_sq]
                out.extend(self.ids[i] for i in hits)
            else:
                stack.append(left)
                stack.append(self._rights[node])
        return out

    def query_knn(self, query: np.ndarray, k: int) -> list[tuple[float, object]]:
        """The ``k`` nearest ids as (distance, id), nearest first."""
        query = self._check_query(query)
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        best: list[tuple[float, int]] = []  # (distance, row) max-heap by dist

        def worst() -> float:
            return best[-1][0] if len(best) >= k else np.inf

        def visit(node: int) -> None:
            gap = np.linalg.norm(query - self._centers[node])
            if gap - self._radii[node] > worst():
                return
            left = self._lefts[node]
            if left < 0:
                idx = self._order[self._starts[node] : self._ends[node]]
                chunk = self.points[idx]
                dists = np.sqrt(((chunk - query) ** 2).sum(axis=1))
                for dist, row in zip(dists, idx):
                    if dist < worst() or len(best) < k:
                        best.append((float(dist), int(row)))
                        best.sort(key=lambda pair: pair[0])
                        del best[k:]
            else:
                right = self._rights[node]
                gap_left = np.linalg.norm(query - self._centers[left])
                gap_right = np.linalg.norm(query - self._centers[right])
                first, second = (
                    (left, right) if gap_left <= gap_right else (right, left)
                )
                visit(first)
                visit(second)

        visit(0)
        return [(dist, self.ids[row]) for dist, row in best]

    def query_radius_batch(
        self, queries: np.ndarray, radius: float
    ) -> list[list]:
        """Radius query for many probes at once.

        Walks the tree once with the whole probe set, testing the pruning
        bound for all still-active probes per node with one vectorized
        distance computation — the batched probing mode similarity joins
        use (per-probe Python overhead amortizes across the batch).
        Returns one id list per query row.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise IndexError_(
                f"queries must be (m, {self.dim}), got shape {queries.shape}"
            )
        if radius < 0:
            raise IndexError_(f"radius must be non-negative, got {radius}")
        results: list[list] = [[] for _ in range(queries.shape[0])]
        radius_sq = radius * radius
        stack: list[tuple[int, np.ndarray]] = [
            (0, np.arange(queries.shape[0]))
        ]
        while stack:
            node, active = stack.pop()
            center = self._centers[node]
            gaps = np.sqrt(((queries[active] - center) ** 2).sum(axis=1))
            survivors = active[gaps <= radius + self._radii[node]]
            if survivors.size == 0:
                continue
            left = self._lefts[node]
            if left < 0:
                idx = self._order[self._starts[node] : self._ends[node]]
                chunk = self.points[idx]
                # (survivors, leaf) distance matrix in one shot
                dists_sq = (
                    ((queries[survivors][:, None, :] - chunk[None, :, :]) ** 2)
                    .sum(axis=2)
                )
                hit_rows, hit_cols = np.nonzero(dists_sq <= radius_sq)
                for row, col in zip(hit_rows, hit_cols):
                    results[int(survivors[row])].append(self.ids[idx[col]])
            else:
                stack.append((left, survivors))
                stack.append((self._rights[node], survivors))
        return results

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64).ravel()
        if query.shape[0] != self.dim:
            raise IndexError_(
                f"query has dim {query.shape[0]}, tree has dim {self.dim}"
            )
        return query

    def __len__(self) -> int:
        return self.n
