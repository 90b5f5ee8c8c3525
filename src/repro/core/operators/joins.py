"""Join operators (Section 5).

Three families, exactly the paper's menu:

* :class:`NestedLoopJoin` — "If no indexes are available, the most generic
  operator ... can execute arbitrary theta-joins"; all pairs, any predicate.
* :class:`IndexEqJoin` — "If a multi-dimensional or single dimensional
  index is available, we can use that index to enable equality joins,
  range joins, or similarity joins"; probes a hash/B+ index on the right
  collection with a key from each left patch, and a
  :class:`~repro.core.operators.scans.Fetch` turns the matched ids into
  patches.
* :class:`BallTreeSimilarityJoin` — the similarity join. With a prebuilt
  index it probes it; without one it implements the "On-The-Fly Index
  Similarity Join": "We load the smaller relation into an in-memory
  Ball-Tree. Then, probe using the other collection of patches."
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.core.catalog import MaterializedCollection
from repro.core.operators.base import Operator
from repro.core.patch import Patch, Row
from repro.errors import QueryError
from repro.indexes import BallTree


class NestedLoopJoin(Operator):
    """All-pairs theta-join; the baseline every index join is measured against."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        theta: Callable[[Patch, Patch], bool],
        *,
        exclude_self: bool = False,
    ) -> None:
        if left.arity != 1 or right.arity != 1:
            raise QueryError("NestedLoopJoin expects arity-1 inputs")
        self.left = left
        self.right = right
        self.theta = theta
        self.exclude_self = exclude_self
        self.arity = 2

    def __iter__(self) -> Iterator[Row]:
        right_rows = [row[0] for row in self.right]  # materialize inner side
        for (left_patch,) in self.left:
            for right_patch in right_rows:
                if self.exclude_self and _same_patch(left_patch, right_patch):
                    continue
                if self.theta(left_patch, right_patch):
                    yield (left_patch, right_patch)


class IndexEqJoin(Operator):
    """Equality join probing a hash/B+ index on the right collection.

    Rows are ``(left patch, right patch id)``: stack
    ``Fetch(right, join, on=1)`` on top to turn the ids into patches,
    with or without pixels.
    """

    def __init__(
        self,
        left: Operator,
        right: MaterializedCollection,
        *,
        left_key: Callable[[Patch], object],
        right_attr: str,
        kind: str = "hash",
    ) -> None:
        if left.arity != 1:
            raise QueryError("IndexEqJoin expects an arity-1 left input")
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_attr = right_attr
        self.kind = kind
        self.arity = 2

    def __iter__(self) -> Iterator[Row]:
        index = self.right.index(self.right_attr, self.kind)
        for (left_patch,) in self.left:
            key = self.left_key(left_patch)
            if key is None:
                continue
            for patch_id in index.lookup(key):
                yield (left_patch, patch_id)


class BallTreeSimilarityJoin(Operator):
    """Similarity join: pairs within Euclidean ``threshold`` in feature space.

    ``features`` extracts the vector from a patch (defaults to ``data`` for
    feature patches). Pass ``index=`` to probe a prebuilt Ball-tree whose
    ids are right-collection patch ids; otherwise the right side is
    materialized into an in-memory tree on the fly (the paper's
    On-The-Fly Index Similarity Join).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator | None,
        *,
        threshold: float,
        features: Callable[[Patch], np.ndarray] | None = None,
        index: BallTree | None = None,
        right_collection: MaterializedCollection | None = None,
        exclude_self: bool = False,
        leaf_size: int = 16,
    ) -> None:
        if left.arity != 1:
            raise QueryError("BallTreeSimilarityJoin expects arity-1 inputs")
        if (right is None) == (index is None):
            raise QueryError(
                "provide exactly one of `right` (on-the-fly build) or "
                "`index` (prebuilt Ball-tree)"
            )
        if index is not None and right_collection is None:
            raise QueryError(
                "a prebuilt index needs `right_collection` to resolve ids"
            )
        self.left = left
        self.right = right
        self.threshold = threshold
        self.features = features or (lambda patch: patch.data)
        self.index = index
        self.right_collection = right_collection
        self.exclude_self = exclude_self
        self.leaf_size = leaf_size
        self.arity = 2

    def __iter__(self) -> Iterator[Row]:
        if self.index is not None:
            yield from self._probe_prebuilt()
        else:
            yield from self._probe_on_the_fly()

    def _probe_prebuilt(self) -> Iterator[Row]:
        assert self.index is not None and self.right_collection is not None
        cache: dict[int, Patch] = {}
        for (left_patch,) in self.left:
            vector = np.asarray(self.features(left_patch), dtype=np.float64).ravel()
            for patch_id in self.index.query_radius(vector, self.threshold):
                patch_id = int(patch_id)
                if patch_id not in cache:
                    cache[patch_id] = self.right_collection.get(patch_id)
                right_patch = cache[patch_id]
                if self.exclude_self and _same_patch(left_patch, right_patch):
                    continue
                yield (left_patch, right_patch)

    def _probe_on_the_fly(self) -> Iterator[Row]:
        assert self.right is not None
        right_patches = [row[0] for row in self.right]
        if not right_patches:
            return
        matrix = np.stack(
            [
                np.asarray(self.features(patch), dtype=np.float64).ravel()
                for patch in right_patches
            ]
        )
        tree = BallTree(matrix, leaf_size=self.leaf_size)
        for (left_patch,) in self.left:
            vector = np.asarray(self.features(left_patch), dtype=np.float64).ravel()
            for row_idx in tree.query_radius(vector, self.threshold):
                right_patch = right_patches[int(row_idx)]
                if self.exclude_self and _same_patch(left_patch, right_patch):
                    continue
                yield (left_patch, right_patch)


class SwapSides(Operator):
    """Reverse the two patches of arity-2 rows.

    Lets the planner build the Ball-tree on whichever join side is
    cheaper while callers still receive (left, right) in query order.
    """

    def __init__(self, child: Operator) -> None:
        if child.arity != 2:
            raise QueryError("SwapSides expects arity-2 rows")
        self.child = child
        self.arity = 2

    def __iter__(self) -> Iterator[Row]:
        for a, b in self.child:
            yield (b, a)


def _same_patch(a: Patch, b: Patch) -> bool:
    if a.patch_id is not None and b.patch_id is not None:
        return a.patch_id == b.patch_id
    return a is b
