"""Scan-side operators: access-path sources, the Fetch, selection, mapping.

Every access path of a materialized collection is a *source* that
names patch ids, and one :class:`Fetch` turns those ids into patches —
Section 3.2's index menu, run as "search the metadata first, then fetch
the blobs":

* :class:`AllIds` — every id in id order (the full scan);
* :class:`IndexLookup` — hash/B+ point lookup (``attr == value``);
* :class:`IndexRange` — B+ range (``lo <= attr <= hi``);
* :class:`AnnProbe` — HNSW or Ball-tree top-k, nearest first;
* :class:`MetadataScan` — the columnar metadata segment, skipping sealed
  blocks by zone map; with a :class:`Select` on top, its surviving rows
  name the ids to fetch.

A plan that reads no pixels stops at the segment: a MetadataScan needs
no Fetch, and an id source gets ``Fetch(load_data=False)``, which also
answers from the segment. Predicates that may read pixels run above the
Fetch.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from repro.core.catalog import MaterializedCollection

if TYPE_CHECKING:  # import cycle: the executor subclasses Operator
    from repro.core.executor import ExecutionContext
from repro.core.expressions import Expr
from repro.core.operators.base import (
    DEFAULT_BATCH_SIZE,
    Batch,
    Operator,
    as_rows,
    chunked,
    slice_batches,
)
from repro.core.patch import FRAME_KEY, LINEAGE_KEY, SOURCE_KEY, Patch, Row
from repro.errors import QueryError


class IteratorScan(Operator):
    """Wrap any patch iterable (ETL output, loader output) as an operator."""

    def __init__(self, patches: Iterable[Patch]) -> None:
        self._patches = patches
        self._consumed = False

    def __iter__(self) -> Iterator[Row]:
        if isinstance(self._patches, (list, tuple)):
            yield from as_rows(iter(self._patches))
            return
        # the consumed flag trips only once this generator is actually
        # driven: merely *creating* an iterator (or an iter_batches
        # generator that is then dropped undriven) must not poison later
        # scans of the underlying one-shot iterator
        if self._consumed:
            raise QueryError(
                "this IteratorScan wraps a one-shot iterator that was "
                "already consumed; materialize the collection to re-scan"
            )
        self._consumed = True
        yield from as_rows(iter(self._patches))

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        if isinstance(self._patches, (list, tuple)):
            # slice directly instead of re-chunking a row iterator
            for chunk in slice_batches(self._patches, size):
                yield [(patch,) for patch in chunk]
            return
        yield from super().iter_batches(size)


class Fetch(Operator):
    """The one place an access path's patch ids become patches.

    Position ``on`` of each ``child`` row holds a patch id, or a patch
    whose ``patch_id`` is used (the surviving rows of a segment scan),
    and is replaced by the fetched patch: one coalesced
    :meth:`MaterializedCollection.get_many` heap trip per batch.
    ``load_data=False`` reads the metadata segment instead (no heap).
    """

    #: first fetch of the row path — small, so an early-exiting consumer
    #: (a limit) never pays for a full default-sized batch of decodes
    ROW_PATH_INITIAL_FETCH = 8

    def __init__(
        self,
        collection: MaterializedCollection,
        child: Operator,
        *,
        on: int = 0,
        load_data: bool = True,
    ) -> None:
        if not 0 <= on < child.arity:
            raise QueryError(f"fetch on position {on} of arity-{child.arity} rows")
        self.collection = collection
        self.child = child
        self.on = on
        self.load_data = load_data
        self.arity = child.arity

    def __iter__(self) -> Iterator[Row]:
        # coalesced like the batched path, but with geometrically growing
        # chunks: a consumer that stops after a few rows decodes ~8
        # patches, a consumer that drains everything converges on
        # full-size coalesced fetches
        rows = iter(self.child)
        size = self.ROW_PATH_INITIAL_FETCH
        while True:
            chunk = list(islice(rows, size))
            if not chunk:
                return
            yield from self._fetch(chunk)
            size = min(size * 2, DEFAULT_BATCH_SIZE)

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        for batch in self.child.iter_batches(size):
            yield self._fetch(batch)

    def _fetch(self, rows: Batch) -> Batch:
        on = self.on
        patches = self.collection.get_many(
            [getattr(row[on], "patch_id", row[on]) for row in rows],
            load_data=self.load_data,
        )
        return [
            row[:on] + (patch,) + row[on + 1 :]
            for row, patch in zip(rows, patches)
        ]


class MetadataScan(Operator):
    """Metadata-only scan with zone-map block skipping.

    Reads the collection's columnar metadata segment — never the patch
    heap — and, given ``expr``, skips sealed blocks whose per-attribute
    min/max zone maps prove no row can match. Surviving blocks are
    *not* row-filtered here: the Select the planner stacks on top
    applies ``expr`` exactly, so a conservative zone map can only cost
    time, never rows.
    """

    def __init__(
        self, collection: MaterializedCollection, expr: Expr | None = None
    ) -> None:
        self.collection = collection
        self.expr = expr
        #: optional ``(skipped, scanned)`` callback the lowerer wires to
        #: the operator's profile entry, grading the zone-map skip
        #: estimate against what the scan actually skipped
        self.on_blocks: Callable[[int, int], None] | None = None

    def __iter__(self) -> Iterator[Row]:
        for batch in self.iter_batches():
            yield from batch

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        for patches in self.collection.metadata_batches(
            size, expr=self.expr, on_blocks=self.on_blocks
        ):
            yield [(patch,) for patch in patches]


class IdSource(Operator):
    """An access path that yields ``(patch_id,)`` rows, from its
    ``ids()``, for a :class:`Fetch` to turn into patches."""

    collection: MaterializedCollection

    @abstractmethod
    def ids(self) -> Iterable[int]:
        """The patch ids this access path names, in its output order."""

    def __iter__(self) -> Iterator[Row]:
        return ((patch_id,) for patch_id in self.ids())

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        for chunk in chunked(self.ids(), size):
            yield [(patch_id,) for patch_id in chunk]


@dataclass(eq=False)
class AllIds(IdSource):
    """Every patch id of a collection, in id order: the full scan."""

    collection: MaterializedCollection

    def ids(self) -> Iterable[int]:
        return self.collection.ids()


@dataclass(eq=False)
class IndexLookup(IdSource):
    """Equality access path: ids with ``attr == value`` via an index."""

    collection: MaterializedCollection
    attr: str
    value: Any
    kind: str = "hash"

    def ids(self) -> Iterable[int]:
        return self.collection.index(self.attr, self.kind).lookup(self.value)


@dataclass(eq=False)
class IndexRange(IdSource):
    """Range access path: ids with ``lo <= attr <= hi`` via a B+ tree."""

    collection: MaterializedCollection
    attr: str
    lo: Any = None
    hi: Any = None
    kind: str = "btree"

    def ids(self) -> Iterable[int]:
        index = self.collection.index(self.attr, self.kind)
        return (patch_id for _, patch_id in index.range(self.lo, self.hi))


@dataclass(eq=False)
class AnnProbe(IdSource):
    """Index-backed top-k similarity: the ids of the ``k`` patches
    nearest to ``query``, nearest first, from a vector index probe
    (``hnsw`` beam search at ``ef``, or an exact BallTree k-NN) instead
    of a full scan-and-sort.

    ``on_search``, when set, receives the probe's stats
    (``{"hops": .., "candidates": ..}``; empty for BallTree) — the
    lowerer wires it to the operator's profile entry."""

    collection: MaterializedCollection
    attr: str
    query: Any
    k: int
    kind: str = "hnsw"
    ef: int | None = None
    on_search: Callable[[dict], None] | None = None

    def ids(self) -> Iterable[int]:
        index = self.collection.index(self.attr, self.kind)
        query = np.asarray(self.query, dtype=np.float64).ravel()
        if self.kind == "hnsw":
            nearest = index.search(query, self.k, ef=self.ef)
            stats = dict(index.last_stats)
        else:
            nearest = index.query_knn(query, self.k)
            stats = {}
        if self.on_search is not None:
            self.on_search(stats)
        return [patch_id for _, patch_id in nearest]


class AnnTopKExact(Operator):
    """Exact top-k similarity over any child: compute every distance and
    keep the ``k`` smallest (pipeline breaker) — the fallback access
    path, and the oracle ANN results are graded against."""

    pipeline_breaker = True

    def __init__(self, child: Operator, attr: str, query, k: int) -> None:
        if child.arity != 1:
            raise QueryError("AnnTopKExact operates on arity-1 rows")
        self.child = child
        self.attr = attr
        self.query = np.asarray(query, dtype=np.float64).ravel()
        self.k = k

    def _distance(self, patch: Patch) -> float | None:
        vector = (
            patch.data if self.attr == "data" else patch.metadata.get(self.attr)
        )
        if vector is None:
            return None
        v = np.asarray(vector, dtype=np.float64).ravel()
        if v.shape != self.query.shape:
            return None
        return float(np.sqrt(((v - self.query) ** 2).sum()))

    def __iter__(self) -> Iterator[Row]:
        scored: list[tuple[float, int, Row]] = []
        for position, row in enumerate(self.child):
            distance = self._distance(row[0])
            if distance is not None:
                # position breaks ties deterministically (rows don't sort)
                scored.append((distance, position, row))
        scored.sort(key=lambda item: item[:2])
        for _, _, row in scored[: self.k]:
            yield row

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        yield from slice_batches(list(self), size)


class Select(Operator):
    """Filter rows by an expression on one of their patches."""

    def __init__(self, child: Operator, expr: Expr, *, on: int = 0) -> None:
        self.child = child
        self.expr = expr
        self.on = on
        self.arity = child.arity

    def __iter__(self) -> Iterator[Row]:
        for row in self.child:
            if self.expr.evaluate(row[self.on]):
                yield row

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        evaluate, on = self.expr.evaluate, self.on
        # re-accumulate survivors to full batches: a selective filter
        # feeding ragged chunks into a vectorized UDF would dilute the
        # batching win the filter push-down exists to deliver
        pending: Batch = []
        for batch in self.child.iter_batches(size):
            pending.extend(row for row in batch if evaluate(row[on]))
            while len(pending) >= size:
                yield pending[:size]
                pending = pending[size:]
        if pending:
            yield pending


class MapPatches(Operator):
    """Apply a patch -> patch(es) function (a generator/transformer stage).

    ``fn`` may return one patch, a list of patches, or None (drop).
    ``batch_fn``, when given, is a vectorized implementation used by the
    batched protocol: it takes a list of patches and must return one
    result (patch / list / None) per input — the hook batched model
    inference plugs into.

    ``execution`` (an :class:`~repro.core.executor.ExecutionContext`)
    with ``workers > 1`` dispatches batches to a thread pool on the
    batched path. UDF maps are pure per-row, so ordered fan-out — batches
    submitted in input order, results consumed in submission order —
    yields exactly the serial output: same rows, same order, same lineage
    keys. A worker exception re-raises on the driver with its original
    type.
    """

    def __init__(
        self,
        child: Operator,
        fn: Callable[[Patch], Patch | list[Patch] | None],
        *,
        on: int = 0,
        batch_fn: Callable[[list[Patch]], list[Patch | list[Patch] | None]]
        | None = None,
        execution: "ExecutionContext | None" = None,
    ) -> None:
        if child.arity != 1:
            raise QueryError("MapPatches operates on arity-1 rows")
        self.child = child
        self.fn = fn
        self.on = on
        self.batch_fn = batch_fn
        self.execution = execution

    @staticmethod
    def _result_rows(result: Patch | list[Patch] | None) -> list[Row]:
        """Normalize one UDF result into output rows (None drops)."""
        if result is None:
            return []
        if isinstance(result, Patch):
            return [(result,)]
        return [(patch,) for patch in result]

    def __iter__(self) -> Iterator[Row]:
        for row in self.child:
            yield from self._result_rows(self.fn(row[self.on]))

    def _apply(self, inputs: list[Patch]) -> list:
        """Run the UDF over one gathered batch (worker-side when parallel)."""
        if self.batch_fn is not None:
            results = self.batch_fn(inputs)
            if len(results) != len(inputs):
                raise QueryError(
                    f"batch_fn returned {len(results)} results for "
                    f"{len(inputs)} patches"
                )
            return results
        fn = self.fn
        return [fn(patch) for patch in inputs]

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        on = self.on
        workers = self.execution.workers if self.execution is not None else 1
        if workers > 1:
            # ordered thread-pool fan-out; imported here, not at module
            # level, because the executor subclasses this package's
            # Operator (import cycle otherwise)
            from repro.core.executor import run_ordered

            inputs = (
                [row[on] for row in batch]
                for batch in self.child.iter_batches(size)
            )
            batch_results = run_ordered(
                inputs,
                self._apply,
                workers=workers,
                prefetch=self.execution.prefetch_batches,
                metrics=self.execution.metrics,
            )
        else:
            batch_results = (
                self._apply([row[on] for row in batch])
                for batch in self.child.iter_batches(size)
            )
        for results in batch_results:
            out: Batch = []
            for result in results:
                out.extend(self._result_rows(result))
            # expanding UDFs can overshoot the batch bound: re-chunk so
            # downstream stages still see at most ``size`` rows per batch
            yield from slice_batches(out, size)


class Limit(Operator):
    """Stop after ``n`` rows — gives q5 its first-match semantics."""

    def __init__(self, child: Operator, n: int) -> None:
        if n < 0:
            raise QueryError(f"limit must be non-negative, got {n}")
        self.child = child
        self.n = n
        self.arity = child.arity

    def __iter__(self) -> Iterator[Row]:
        remaining = self.n
        if remaining == 0:
            return
        for row in self.child:
            yield row
            remaining -= 1
            if remaining == 0:
                return

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        remaining = self.n
        if remaining == 0:
            return
        # shrinking the child's batch to n bounds how far a lazy chain
        # computes past the limit — but when a pipeline breaker (which
        # consumes everything regardless) sits anywhere below, it would
        # only starve upstream vectorized stages of full batches, so
        # leave ``size`` alone. Never *inflate*: ``size`` is the
        # caller's contract.
        child_size = size if _breaker_below(self.child) else min(size, remaining)
        for batch in self.child.iter_batches(child_size):
            if len(batch) >= remaining:
                yield batch[:remaining]
                return
            yield batch
            remaining -= len(batch)


def _breaker_below(operator: Operator | None) -> bool:
    """True when a pipeline breaker sits anywhere down the child chain."""
    while operator is not None:
        if operator.pipeline_breaker:
            return True
        operator = getattr(operator, "child", None)
    return False


class OrderBy(Operator):
    """Sort rows by a key over the first patch (pipeline breaker)."""

    pipeline_breaker = True

    def __init__(
        self, child: Operator, key: Callable[[Patch], object], *, reverse: bool = False
    ) -> None:
        self.child = child
        self.key = key
        self.reverse = reverse
        self.arity = child.arity

    def __iter__(self) -> Iterator[Row]:
        rows = list(self.child)
        rows.sort(key=lambda row: self.key(row[0]), reverse=self.reverse)
        return iter(rows)

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        rows: list[Row] = [
            row for batch in self.child.iter_batches(size) for row in batch
        ]
        rows.sort(key=lambda row: self.key(row[0]), reverse=self.reverse)
        yield from slice_batches(rows, size)


class Project(Operator):
    """Project each patch down to the listed metadata attributes.

    Internal keys (lineage, source, frameno) survive so backtracing and
    downstream temporal logic keep working; the pixel/feature payload is
    dropped unless ``keep_data`` — the classic "stop carrying the image
    once only metadata is needed" optimization.
    """

    #: metadata keys a projection never removes
    ALWAYS_KEPT = (LINEAGE_KEY, SOURCE_KEY, FRAME_KEY)

    def __init__(
        self, child: Operator, attrs: Iterable[str], *, keep_data: bool = False
    ) -> None:
        if child.arity != 1:
            raise QueryError("Project operates on arity-1 rows")
        self.child = child
        self.attrs = tuple(attrs)
        self.keep_data = keep_data
        self._keep = set(self.attrs) | set(self.ALWAYS_KEPT)

    def _project(self, patch: Patch) -> Patch:
        keep = self._keep
        metadata = {
            key: value for key, value in patch.metadata.items() if key in keep
        }
        return Patch(
            img_ref=patch.img_ref,  # frozen, shareable as-is
            data=patch.data if self.keep_data else np.empty(0, dtype=np.uint8),
            metadata=metadata,
            patch_id=patch.patch_id,
        )

    def __iter__(self) -> Iterator[Row]:
        for row in self.child:
            yield (self._project(row[0]),)

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        project = self._project
        for batch in self.child.iter_batches(size):
            yield [(project(row[0]),) for row in batch]
