"""Catalog: materialized patch collections and their indexes.

"Any of the intermediate results in DeepLens can be materialized ... We
also support the construction of indexes on the materialized data"
(Section 3.2). The catalog owns one pager + blob heap per database
directory and exposes:

* :meth:`Catalog.materialize` — persist a patch iterator as a named
  collection (assigning patch ids, validating against a schema, recording
  lineage);
* :meth:`Catalog.create_index` — hash / B+ tree / R-tree / Ball-tree over
  a collection attribute (or the patch data itself for feature patches);
* :class:`MaterializedCollection` — scan / point access / index lookup.

Hash and B+ tree indexes live in the pager; R-trees and Ball-trees are
rebuilt from the stored patches on first use (the paper's "on-the-fly"
Ball-trees).

Derived state persists as blob-heap snapshots through one registry,
:class:`DerivedState`, with one instance per kind. Each object sets its
own ``dirty`` flag and is re-snapshotted at the next commit barrier. A
snapshot that fails to decode is quarantined, recorded as a recovery
event, and replaced by its kind's repair policy:

* statistics (the planner's ``StatisticsProvider``, folded in by every
  :meth:`MaterializedCollection.add`) rebuild from a full scan, or are
  dropped when the collection is gone;
* HNSW graphs (grown on every add) rebuild from their collection;
* the plan-quality and slow-query logs restart empty (advisory history).
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.core.batching import DEFAULT_BATCH_SIZE, chunked
from repro.core.lineage import LineageStore
from repro.core.metrics import SlowQueryLog
from repro.core.patch import ImgRef, LINEAGE_KEY, Patch, _normalize_meta
from repro.core.profile import PlanQualityLog
from repro.core.schema import PatchSchema
from repro.core.statistics import CollectionStatistics
from repro.errors import CorruptionError, IndexError_, QueryError, StorageError
from repro.indexes import (
    BallTree,
    BTreeIndex,
    HashIndex,
    HNSWIndex,
    RTree,
    rect_from_bbox,
)
from repro.storage.journal import CommitJournal
from repro.storage.kvstore import BlobHeap, BlobRef, BPlusTree, Pager
from repro.storage.kvstore import serialization
from repro.storage.metadata_segment import CollectionSegment, MetadataSegmentStore

INDEX_KINDS = ("hash", "btree", "rtree", "balltree", "hnsw")

#: accepted CREATE INDEX ... USING HNSW (...) knobs -> HNSWIndex kwargs
_HNSW_PARAM_KEYS = {
    "m": "m",
    "ef_construction": "ef_construction",
    "ef": "ef_search",
    "ef_search": "ef_search",
    "seed": "seed",
}

#: bound on the persisted recovery-event history in catalog meta
RECOVERY_LOG_MAX = 64

#: how often a metadata read may quarantine + rebuild its segment before
#: giving up — a rebuilt segment failing again means the blob heap itself
#: (the source of truth) is damaged, which rebuilding cannot fix
_MAX_SEGMENT_REBUILDS = 3


class MaterializedCollection:
    """One named, persisted collection of patches."""

    def __init__(self, catalog: "Catalog", name: str) -> None:
        self.catalog = catalog
        self.name = name
        # trees are process-wide singletons per name (the catalog registry)
        # because lazily-written pages are only visible through the owning
        # tree object until the next sync
        self._tree = catalog._tree_for(f"col:{name}")
        self.schema: PatchSchema | None = None
        # memory-resident primary "index": patch id -> heap ref, built
        # lazily on the first point access so random gets skip the B+ walk
        self._ref_map: dict[int, bytes] | None = None

    def __len__(self) -> int:
        return len(self._tree)

    def add(self, patch: Patch) -> int:
        """Persist one patch; returns its assigned patch id."""
        if self.schema is not None:
            self.schema.validate_patch(patch)
        patch_id = self.catalog._next_patch_id()
        patch.patch_id = patch_id
        ref = self.catalog.heap.put(patch.to_record(), compress=True)
        payload = serialization.dumps(list(ref.to_tuple()), compress_arrays=False)
        self._tree.insert(patch_id, payload)
        if self._ref_map is not None:
            self._ref_map[patch_id] = payload
        segment = self.catalog.segments.segment(self.name)
        if segment.row_count == len(self._tree) - 1:
            # keep the columnar segment in lockstep; an incomplete one
            # (pre-segment catalog) instead backfills on first metadata read
            segment.append(
                patch_id, patch.img_ref.to_value(), _normalize_meta(patch.metadata)
            )
        self.catalog.lineage.record(patch)
        self.catalog._maintain_indexes(self.name, patch)
        self.catalog._record_statistics(self.name, patch)
        self.catalog._bump_version(self.name)
        return patch_id

    def get(self, patch_id: int, *, load_data: bool = True) -> Patch:
        return self.get_many([patch_id], load_data=load_data)[0]

    def get_many(
        self, patch_ids: Iterable[int], *, load_data: bool = True
    ) -> list[Patch]:
        """Batched point access: many patches per coalesced heap trip.

        Results align with ``patch_ids``. The heap sorts the underlying
        blob reads by file offset and coalesces adjacent runs, so index
        access paths fetching dozens of ids pay a handful of sequential
        reads instead of one seek per patch. ``load_data=False`` answers
        from the columnar metadata segment — zero heap reads.
        """
        ids = list(patch_ids)
        if not ids:
            return []
        if not load_data:
            try:
                rows = self._segment_rows(ids)
            except KeyError as exc:
                raise QueryError(
                    f"patch {exc.args[0]} not in collection {self.name!r}"
                ) from None
            return [self._patch_from_metadata(*row) for row in rows]
        refs = self._refs()
        chunk: list[tuple[int, bytes]] = []
        for patch_id in ids:
            payload = refs.get(patch_id)
            if payload is None:
                raise QueryError(
                    f"patch {patch_id} not in collection {self.name!r}"
                )
            chunk.append((patch_id, payload))
        return self._load_chunk(chunk, load_data)

    def scan(self, *, load_data: bool = True) -> Iterator[Patch]:
        """Iterate every patch in id order.

        Rides :meth:`scan_batches`, so the serial iterator gets the same
        coalesced heap reads (``load_data=True``) or the same pure
        segment reads (``load_data=False``) as the batched path.
        """
        for batch in self.scan_batches(load_data=load_data):
            yield from batch

    def scan_batches(
        self, size: int = DEFAULT_BATCH_SIZE, *, load_data: bool = True
    ) -> Iterator[list[Patch]]:
        """Scan in id order, decoding a whole batch per heap trip.

        Each batch resolves its blob refs up front and reads them through
        :meth:`BlobHeap.multi_get`, so a cold scan issues a few coalesced
        reads per ``size`` patches instead of a heap round-trip each.
        ``load_data=False`` never touches the patch heap at all: batches
        come out of the columnar metadata segment, skipping the pixel
        decompression ``Patch.from_record`` used to pay just to throw the
        data away.
        """
        if not load_data:
            yield from self.metadata_batches(size)
            return
        yield from self._record_batches(size, load_data)

    def _record_batches(
        self, size: int, load_data: bool
    ) -> Iterator[list[Patch]]:
        """The full-record path: decode heap records batch-wise. This is
        what every scan used to be — kept callable with
        ``load_data=False`` as the segment backfill source (and the
        pre-fix baseline the metadata-scan benchmark measures against)."""
        for chunk in chunked(self._tree.items(), size):
            yield self._load_chunk(chunk, load_data)

    # -- metadata segment (columnar, zone-mapped) -----------------------

    def metadata_batches(
        self, size: int = DEFAULT_BATCH_SIZE, expr=None, on_blocks=None
    ) -> Iterator[list[Patch]]:
        """Metadata-only batches straight from the columnar segment.

        With ``expr``, sealed blocks whose zone maps prove no row can
        match are skipped unread; surviving batches still carry every
        row of their blocks (the caller's Select filters exactly).
        ``on_blocks(skipped, scanned)`` reports the zone-map actuals to
        the executing operator's profile as the scan finishes.
        Patches come back bit-identical to
        ``Patch.from_record(..., with_data=False)``: empty data array,
        same metadata, same lineage tuples.

        The segment is derived state: a corrupt block does not fail the
        scan. It is quarantined, the segment rebuilds from the blob heap,
        and the scan resumes after the last row already delivered (rows
        are id-ordered, so no duplicates and no gaps).
        """
        last_yielded: int | None = None
        rebuilds = 0
        while True:
            segment = self._metadata_segment()
            batch: list[Patch] = []
            try:
                for row in segment.scan_rows(
                    expr, on_blocks, after_id=last_yielded
                ):
                    batch.append(self._patch_from_metadata(*row))
                    if len(batch) >= size:
                        yield batch
                        last_yielded = batch[-1].patch_id
                        batch = []
                if batch:
                    yield batch
                return
            except CorruptionError as exc:
                rebuilds += 1
                if rebuilds > _MAX_SEGMENT_REBUILDS:
                    raise
                self.catalog._quarantine_segment(self.name, exc)

    def metadata_block_stats(self, expr=None) -> tuple[int, int, int]:
        """(kept blocks, total sealed blocks, surviving-row bound) a
        zone-mapped metadata scan of ``expr`` would read — the planner's
        block-skipping estimate."""
        return self._metadata_segment().block_stats(expr)

    def attr_min_max(self, attr: str) -> tuple | None:
        """(min, max) of a metadata attribute answered purely from the
        segment's zone maps and in-memory tail — no sealed block is
        decoded. ``None`` when not provable from summaries (mixed-type
        column, or no non-None value); callers fall back to a scan."""
        return self._metadata_segment().attr_min_max(attr)

    def _segment_rows(self, ids: list[int]) -> list:
        """Point rows from the segment, with one quarantine + rebuild
        retry on corruption (a second failure means the blob heap itself
        is damaged and propagates)."""
        try:
            return self._metadata_segment().get_rows(ids)
        except CorruptionError as exc:
            self.catalog._quarantine_segment(self.name, exc)
            return self._metadata_segment().get_rows(ids)

    def _metadata_segment(self) -> CollectionSegment:
        """This collection's segment, rebuilt from the blob heap (the
        source of truth) whenever it is incomplete: a pre-segment catalog
        backfilling lazily, or a quarantined corrupt segment."""
        segment = self.catalog.segments.segment(self.name)
        if segment.row_count != len(self._tree):
            self.catalog._metric_segment_rebuilds.inc()
            segment.rebuild(
                (patch.patch_id, patch.img_ref.to_value(),
                 _normalize_meta(patch.metadata))
                for batch in self._record_batches(DEFAULT_BATCH_SIZE, False)
                for patch in batch
            )
        return segment

    @staticmethod
    def _patch_from_metadata(
        patch_id: int, ref_value: tuple, metadata: dict
    ) -> Patch:
        """Rebuild a data-less patch from one segment row, reproducing
        ``Patch.from_record(..., with_data=False)`` exactly."""
        metadata[LINEAGE_KEY] = tuple(
            tuple(step) for step in metadata.get(LINEAGE_KEY, ())
        )
        return Patch(
            img_ref=ImgRef.from_value(tuple(ref_value)),
            data=np.empty(0, dtype=np.uint8),
            metadata=metadata,
            patch_id=patch_id,
        )

    def _load_chunk(
        self, chunk: list[tuple[int, bytes]], load_data: bool
    ) -> list[Patch]:
        refs = [
            BlobRef.from_tuple(tuple(serialization.loads(payload)))
            for _, payload in chunk
        ]
        records = self.catalog.heap.multi_get(refs)
        return [
            Patch.from_record(record, patch_id=patch_id, with_data=load_data)
            for (patch_id, _), record in zip(chunk, records)
        ]

    def _refs(self) -> dict[int, bytes]:
        """The memory-resident id -> heap-ref map, in id order."""
        if self._ref_map is None:
            self._ref_map = dict(self._tree.items())
        return self._ref_map

    def ids(self) -> list[int]:
        return list(self._refs())

    # -- index access ---------------------------------------------------

    def index(self, attr: str, kind: str):
        return self.catalog.get_index(self.name, attr, kind)

    def lookup(self, attr: str, value: Any, kind: str = "hash") -> list[Patch]:
        """Point lookup through an index: patches with attr == value."""
        index = self.index(attr, kind)
        return self.get_many(list(index.lookup(value)))


class DerivedState:
    """One kind of derived state persisted as blob-heap snapshots.

    Objects live under a key — a collection name (statistics), an index
    key (HNSW graphs), or ``None`` (the catalog-wide logs) — and expose
    ``to_value()`` plus a ``dirty`` flag set by their own mutators. The
    registry owns the key -> heap-ref map stored in catalog meta under
    ``meta_key``, decodes snapshots lazily through ``loader`` (a
    ``from_value``), and quarantines one it cannot decode: the ref is
    dropped, an ``event`` recovery event is recorded, and
    ``repair(key)`` supplies the replacement (or ``None``).
    """

    def __init__(
        self,
        catalog: "Catalog",
        meta: dict,
        meta_key: str,
        event: str,
        loader: Callable[[Any], Any],
        repair: Callable[[Any], Any],
    ) -> None:
        self._catalog = catalog
        self.meta_key = meta_key
        self._event = event
        self._loader = loader
        self._repair = repair
        self._refs: dict[Any, list] = _snapshot_refs(meta.get(meta_key))
        self._live: dict[Any, Any] = {}

    def get(self, key, *, create: bool = False):
        """The object under ``key``: resident, else decoded from its
        snapshot, else (corrupt snapshot) repaired. Without a snapshot
        the answer is ``None`` — or, with ``create``, the repair hook's
        fresh object."""
        obj = self._live.get(key)
        if obj is not None:
            return obj
        ref = self._refs.get(key)
        if ref is not None:
            try:
                obj = self._load(key, BlobRef.from_tuple(tuple(ref)))
            except CorruptionError as exc:
                del self._refs[key]
                self._catalog._record_recovery_event(
                    self._event, **_event_fields(key), detail=str(exc)
                )
                obj = self._repair(key)
        elif create:
            obj = self._repair(key)
        if obj is not None:
            self._live[key] = obj
        return obj

    def put(self, key, obj):
        self._live[key] = obj
        return obj

    def drop(self, match: Callable[[Any], bool]) -> None:
        """Forget every object and snapshot whose key ``match``es."""
        for store in (self._refs, self._live):
            for key in [k for k in store if match(k)]:
                del store[key]

    def flush(self) -> dict:
        """Snapshot every dirty object into the heap (key order); returns
        the key -> ref map for catalog meta."""
        for key in sorted(k for k, obj in self._live.items() if obj.dirty):
            obj = self._live[key]
            payload = serialization.dumps(obj.to_value(), compress_arrays=False)
            ref = self._catalog.heap.put(payload, compress=True)
            self._refs[key] = list(ref.to_tuple())
            obj.dirty = False
        return dict(self._refs)

    def _load(self, key, ref: BlobRef):
        """Decode one snapshot; every failure — checksum, short read,
        undecodable content, a shape ``loader`` rejects — surfaces as one
        positioned :class:`CorruptionError`."""
        heap = self._catalog.heap
        try:
            return self._loader(serialization.loads(heap.get(ref)))
        except CorruptionError:
            raise
        except (
            StorageError,
            zlib.error,
            struct.error,
            ValueError,
            KeyError,
            TypeError,
            IndexError,
            AttributeError,
        ) as exc:
            raise CorruptionError(
                f"undecodable {self.meta_key} snapshot {key!r}: {exc}",
                file=heap.path,
                offset=ref.offset,
            ) from exc


def _snapshot_refs(raw) -> dict:
    """key -> heap ref from a ``catalog:*`` meta entry. Catalogs written
    before the registry stored HNSW refs as ``[[key, ref], ...]`` pairs
    and each log's ref bare; both read into the same map."""
    if isinstance(raw, list):
        if raw and isinstance(raw[0], int):
            return {None: raw}
        return {tuple(key): ref for key, ref in raw}
    return dict(raw or {})


def _event_fields(key) -> dict:
    """Recovery-event fields naming a derived-state key."""
    if key is None:
        return {}
    if isinstance(key, str):
        return {"collection": key}
    return {"collection": key[0], "attr": key[1]}


class Catalog:
    """Database directory: patch heap, collections, indexes, lineage.

    Crash consistency: all four storage files (``catalog.db``,
    ``patches.heap``, ``metadata.seg``, and ``journal.log``) mutate as
    one atomic group. The first mutating write after a commit opens a
    transaction in the :class:`~repro.storage.journal.CommitJournal`;
    :meth:`sync`, :meth:`close`, :meth:`materialize`, and
    :meth:`create_index` are the commit barriers. ``__init__`` runs
    journal recovery *before* opening any store, so a catalog that
    crashed mid-mutation reopens in its last committed state.
    """

    def __init__(
        self,
        workdir: str | os.PathLike,
        *,
        metrics=None,
        durability: str = "fsync",
        fs=None,
    ) -> None:
        if durability not in ("fsync", "flush", "none"):
            raise StorageError(
                f"unknown durability mode {durability!r}: "
                'expected "fsync", "flush", or "none"'
            )
        self.workdir = os.fspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        #: the session's metrics registry (None-safe: storage layers
        #: substitute the shared null registry), threaded into the
        #: pager, both heaps, and every metadata segment
        self.metrics = metrics
        self.durability = durability
        self._fs = fs
        registry = metrics
        if registry is None:
            from repro.core.metrics import NULL_REGISTRY

            registry = NULL_REGISTRY
        self._metric_replays = registry.counter(
            "deeplens_journal_replays_total",
            "half-applied transactions rolled back at catalog open",
        )
        self._metric_segment_rebuilds = registry.counter(
            "deeplens_segment_rebuilds_total",
            "metadata segments rebuilt from the blob heap",
        )
        #: recovery/repair events observed by THIS catalog instance —
        #: what db.recovery_report() shows; also appended to the bounded
        #: history persisted in catalog meta
        self.recovery_events: list[dict] = []
        self._recovery_log: list[dict] = []
        #: ``durability="none"`` disables journaling entirely (the
        #: pre-crash-safety behavior; the durability benchmark baseline)
        self._journal: CommitJournal | None = None
        replay_report = None
        if durability != "none":
            self._journal = CommitJournal(
                os.path.join(self.workdir, "journal.log"),
                durability=durability,
                fs=fs,
                metrics=metrics,
            )
            # recovery MUST precede opening the stores: it rewrites their
            # files directly (including a possibly-torn pager header)
            replay_report = self._journal.recover()
        self.pager = Pager(
            os.path.join(self.workdir, "catalog.db"),
            metrics=metrics,
            journal=self._journal,
            fs=fs,
            durability=durability,
        )
        self.heap = BlobHeap(
            os.path.join(self.workdir, "patches.heap"),
            metrics=metrics,
            journal=self._journal,
            fs=fs,
            durability=durability,
        )
        #: columnar metadata segments, one per collection, in their own
        #: heap file — metadata-only scans never touch ``patches.heap``
        self.segments = MetadataSegmentStore(
            os.path.join(self.workdir, "metadata.seg"),
            metrics=metrics,
            journal=self._journal,
            fs=fs,
            durability=durability,
            on_corruption=self._on_segment_corruption,
        )
        if self._journal is not None:
            self._journal.register_begin_provider(self._begin_state)
        # the empty-meta sanity check must run before ANY meta writer
        # (LineageStore re-creates its B+ trees into an empty meta dict,
        # which would mask a torn meta page as a legitimately empty
        # catalog and silently orphan every collection)
        meta = self.pager.get_meta()
        if not meta and (
            self.pager.page_count > 2 or self.heap.size_bytes > 16
        ):
            raise CorruptionError(
                "catalog meta page is empty but the catalog contains data; "
                "the meta page was torn or zeroed",
                file=self.pager.path,
                offset=self.pager._meta_page * self.pager.page_size,
            )
        self.lineage = LineageStore(self.pager)
        self._collections: dict[str, MaterializedCollection] = {}
        #: (collection, attr, kind) -> resident index object (HNSW graphs
        #: live in ``_hnsw_graphs``)
        self._indexes: dict[tuple[str, str, str], Any] = {}
        self._trees: dict[str, BPlusTree] = {}
        self._recovery_log = [dict(e) for e in meta.get("catalog:recovery_log", [])]
        if replay_report is not None:
            self._metric_replays.inc()
            self._record_recovery_event("journal_replay", **replay_report)
        self._next_id = meta.get("catalog:next_id", 0)
        for name in meta.get("catalog:collections", []):
            self._collections[name] = MaterializedCollection(self, name)
        self._registered: list[tuple[str, str, str]] = [
            tuple(entry) for entry in meta.get("catalog:indexes", [])
        ]
        self._multi_value: set[tuple[str, str, str]] = {
            tuple(entry) for entry in meta.get("catalog:multi_value", [])
        }
        #: (collection, attr, kind) -> build knobs (hnsw m/ef/...)
        self._index_params: dict[tuple[str, str, str], dict] = {
            tuple(entry[0]): dict(entry[1])
            for entry in meta.get("catalog:index_params", [])
        }
        #: collection name -> statistics
        self._statistics = DerivedState(
            self, meta, "catalog:stats", "stats_rebuilt",
            CollectionStatistics.from_value,
            lambda name: (
                self.rebuild_statistics(name)
                if name in self._collections else None
            ),
        )
        #: (collection, attr, 'hnsw') -> graph
        self._hnsw_graphs = DerivedState(
            self, meta, "catalog:hnsw", "hnsw_rebuilt",
            lambda value: HNSWIndex.from_value(value, metrics=self.metrics),
            lambda key: self._build_index(
                self.collection(key[0]), key[1], key[2], None
            ),
        )
        #: None -> estimate-vs-actual history and per-predicate feedback
        #: corrections from EXPLAIN ANALYZE runs
        self._plan_quality = DerivedState(
            self, meta, "catalog:plan_log", "plan_log_reset",
            PlanQualityLog.from_value, lambda _: PlanQualityLog(),
        )
        #: None -> queries over the slow-query threshold
        self._slow_queries = DerivedState(
            self, meta, "catalog:slow_log", "slow_log_reset",
            SlowQueryLog.from_value, lambda _: SlowQueryLog(),
        )
        #: collection name -> monotone mutation counter (bumped per add);
        #: the lineage version materialized views record for their bases
        self._versions: dict[str, int] = dict(meta.get("catalog:versions", {}))
        #: collection name -> version at the last full materialization /
        #: statistics rebuild — the baseline the staleness flag measures from
        self._fresh_versions: dict[str, int] = dict(
            meta.get("catalog:fresh_versions", {})
        )
        self.segments.attach(meta.get("catalog:meta_segment", {}))

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self.sync()
        self.pager.close()
        self.heap.close()
        self.segments.close()
        if self._journal is not None:
            self._journal.close()

    def sync(self) -> None:
        """Flush everything durably, then commit: the catalog's
        transaction barrier. Data files are synced *before* the journal
        truncates — the truncation is the commit point."""
        self._save_meta()
        self.pager.sync()
        self.heap.sync()
        self.segments.sync()
        if self._journal is not None:
            self._journal.commit()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _save_meta(self) -> None:
        meta = self.pager.get_meta()
        for state in (
            self._statistics,
            self._hnsw_graphs,
            self._plan_quality,
            self._slow_queries,
        ):
            meta[state.meta_key] = state.flush()
        meta["catalog:next_id"] = self._next_id
        meta["catalog:meta_segment"] = self.segments.flush()
        meta["catalog:collections"] = sorted(self._collections)
        meta["catalog:indexes"] = [list(key) for key in self._registered]
        meta["catalog:multi_value"] = [list(key) for key in sorted(self._multi_value)]
        meta["catalog:index_params"] = [
            [list(key), dict(params)]
            for key, params in sorted(self._index_params.items())
        ]
        meta["catalog:versions"] = dict(self._versions)
        meta["catalog:fresh_versions"] = dict(self._fresh_versions)
        if self._recovery_log:
            meta["catalog:recovery_log"] = [dict(e) for e in self._recovery_log]
        self.pager.set_meta(meta)

    # -- recovery & repair observability ---------------------------------

    def _begin_state(self) -> dict:
        """The commit journal's BEGIN snapshot: everything rollback needs
        that cannot be reconstructed after the files mutate. Called with
        no pager/heap locks held, so only plain attributes are read."""
        return {
            "op": "catalog-mutation",
            "pager": os.path.basename(self.pager.path),
            "page_size": self.pager.page_size,
            "pre_page_count": self.pager.page_count,
            "header": self.pager.packed_header(),
            "heap_ends": {
                os.path.basename(self.heap.path): self.heap.size_bytes,
                os.path.basename(self.segments.heap_path):
                    self.segments.heap_size_bytes,
            },
        }

    def _record_recovery_event(self, kind: str, **details) -> None:
        event = {"kind": kind}
        for key, value in details.items():
            event[key] = value if isinstance(value, (int, str, dict)) else str(value)
        self.recovery_events.append(event)
        self._recovery_log.append(event)
        del self._recovery_log[:-RECOVERY_LOG_MAX]

    def recovery_report(self) -> dict:
        """What storage repair has happened: ``events`` covers this
        catalog instance (journal rollback at open, quarantined segments
        or snapshots repaired at runtime); ``history`` is the bounded
        persisted log across opens."""
        return {
            "events": [dict(e) for e in self.recovery_events],
            "history": [dict(e) for e in self._recovery_log],
        }

    def scrub(self) -> dict:
        """On-demand integrity sweep over every checksummed structure:
        pager pages (against their committed on-disk images), blob-heap
        records of both heap files, and every collection's sealed
        metadata-segment blocks (decoded end to end).

        Failures are collected, not raised: each lands in the returned
        ``errors`` list, is recorded as a ``scrub_corruption`` recovery
        event (so :meth:`recovery_report` shows it), and counts in
        ``deeplens_corruption_detected_total`` at the detecting layer.
        """
        errors: list[dict] = []

        def note(source: str, found) -> None:
            for exc in found:
                entry = {"source": source, "detail": str(exc)}
                if getattr(exc, "file", None) is not None:
                    entry["file"] = exc.file
                if getattr(exc, "offset", None) is not None:
                    entry["offset"] = exc.offset
                errors.append(entry)

        pages_checked, page_errors = self.pager.scrub()
        note("pager", page_errors)
        records_checked, record_errors = self.heap.scrub()
        note("heap", record_errors)
        segment_records, segment_errors = self.segments.scrub()
        records_checked += segment_records
        note("segment-heap", segment_errors)
        blocks_checked = 0
        for name in self.collections():
            # the raw attached segment, NOT _metadata_segment(): scrub
            # must observe damage, never trigger the rebuild that heals it
            checked, block_errors = self.segments.segment(name).scrub()
            blocks_checked += checked
            note(f"segment[{name}]", block_errors)
        for entry in errors:
            self._record_recovery_event("scrub_corruption", **entry)
        return {
            "pages_checked": pages_checked,
            "records_checked": records_checked,
            "blocks_checked": blocks_checked,
            "errors": errors,
        }

    def _on_segment_corruption(self, name: str, exc: CorruptionError) -> None:
        """MetadataSegmentStore's descriptor-quarantine hook."""
        self._record_recovery_event(
            "segment_quarantined", collection=name, detail=str(exc)
        )

    def _quarantine_segment(self, name: str, exc: CorruptionError) -> None:
        """Discard a corrupt segment so the next metadata read rebuilds
        it from the blob heap (the source of truth)."""
        self.segments.drop(name)
        self._record_recovery_event(
            "segment_quarantined", collection=name, detail=str(exc)
        )

    def _tree_for(self, name: str) -> BPlusTree:
        if name not in self._trees:
            self._trees[name] = BPlusTree(self.pager, name, unique=True)
        return self._trees[name]

    def _next_patch_id(self) -> int:
        patch_id = self._next_id
        self._next_id += 1
        return patch_id

    # -- collections ----------------------------------------------------

    def materialize(
        self,
        patches: Iterable[Patch],
        name: str,
        schema: PatchSchema | None = None,
        *,
        replace: bool = False,
    ) -> MaterializedCollection:
        """Persist an iterator of patches as collection ``name``."""
        if name in self._collections:
            if not replace:
                raise StorageError(
                    f"collection {name!r} already exists (pass replace=True)"
                )
            collection = self._collections[name]
            collection._tree.clear()
            collection._ref_map = None
            # the columnar segment restarts clean alongside the tree
            self.segments.drop(name)
            # indexes and statistics over the old contents are stale
            self._registered = [
                key for key in self._registered if key[0] != name
            ]
            self._multi_value = {
                key for key in self._multi_value if key[0] != name
            }
            for store in (self._indexes, self._index_params):
                for key in [k for k in store if k[0] == name]:
                    del store[key]
            self._hnsw_graphs.drop(lambda key: key[0] == name)
            self.drop_statistics(name)
            # replacing is a mutation even when zero rows follow (an
            # emptied base must still invalidate dependent views)
            self._bump_version(name)
        else:
            collection = MaterializedCollection(self, name)
            self._collections[name] = collection
        collection.schema = schema
        for patch in patches:
            collection.add(patch)
        # the collection is now a complete snapshot: later add()s count as
        # mutations against this baseline (statistics staleness flag, view
        # invalidation)
        self._fresh_versions[name] = self._versions.get(name, 0)
        # commit barrier: the whole materialization lands atomically
        self.sync()
        return collection

    def collection(self, name: str) -> MaterializedCollection:
        try:
            return self._collections[name]
        except KeyError:
            raise QueryError(
                f"no collection {name!r}; have {sorted(self._collections)}"
            ) from None

    def collections(self) -> list[str]:
        return sorted(self._collections)

    # -- collection versions (lineage-driven invalidation) ----------------

    def collection_version(self, collection_name: str) -> int:
        """Monotone mutation counter for a collection: bumped on every
        :meth:`MaterializedCollection.add`. Materialized views record
        their bases' versions at build time; a mismatch later means the
        view no longer reflects its base."""
        return self._versions.get(collection_name, 0)

    def mutations_since_fresh(self, collection_name: str) -> int:
        """Adds since the collection was last fully materialized or had
        its statistics rebuilt — the statistics staleness counter."""
        return self.collection_version(collection_name) - self._fresh_versions.get(
            collection_name, 0
        )

    def _bump_version(self, collection_name: str) -> None:
        self._versions[collection_name] = self._versions.get(collection_name, 0) + 1

    # -- advisory query logs ----------------------------------------------

    def plan_quality_log(self) -> PlanQualityLog:
        """The catalog's plan-quality log: estimate-vs-actual history per
        parameterized plan fingerprint plus per-predicate observed
        selectivities (EXPLAIN ANALYZE feedback). Starts empty when there
        is no snapshot or the snapshot is corrupt."""
        return self._plan_quality.get(None, create=True)

    def slow_query_log(self) -> SlowQueryLog:
        """The catalog's slow-query log: bounded history of queries whose
        wall time crossed the threshold, with span trees and counter
        deltas. Same lifecycle as the plan-quality log."""
        return self._slow_queries.get(None, create=True)

    # -- cardinality statistics -----------------------------------------

    def statistics_for(
        self, collection_name: str
    ) -> CollectionStatistics | None:
        """Statistics for a collection (the planner's entry point).

        Returns None for collections without statistics (unknown names,
        or databases materialized before statistics existed) — the
        optimizer then falls back to its fixed selectivity constants.

        A corrupt snapshot never fails the query: statistics are derived
        state, so the snapshot is quarantined and rebuilt from a full
        scan of the collection (or dropped to the fallback constants when
        the collection itself is gone).
        """
        stats = self._statistics.get(collection_name)
        if stats is not None:
            stats.staleness = self.mutations_since_fresh(collection_name)
        return stats

    def rebuild_statistics(self, collection_name: str) -> CollectionStatistics:
        """Recompute statistics from a full scan (id order — the same
        order incremental collection saw, so the results are identical
        unless the statistics were lost or predate this feature)."""
        collection = self.collection(collection_name)
        stats = CollectionStatistics()
        for patch in collection.scan():
            stats.observe(patch)
        # persisted even when the scan saw no rows
        stats.dirty = True
        self._statistics.put(collection_name, stats)
        # a full-scan rebuild re-baselines staleness: the profile now
        # reflects every row
        self._fresh_versions[collection_name] = self.collection_version(
            collection_name
        )
        return stats

    def drop_statistics(self, collection_name: str) -> None:
        """Forget a collection's statistics (planner falls back to
        constants until they are rebuilt)."""
        self._statistics.drop(lambda key: key == collection_name)

    def _record_statistics(self, collection_name: str, patch: Patch) -> None:
        stats = self.statistics_for(collection_name)
        if stats is None:
            # statistics must start at the collection's very first row:
            # seeding them mid-collection (after drop_statistics, or on
            # a database that predates statistics) would present partial
            # counts as authoritative — stay on fallback until an
            # explicit rebuild_statistics
            if len(self._collections[collection_name]) != 1:
                return
            stats = self._statistics.put(collection_name, CollectionStatistics())
        stats.observe(patch)

    # -- indexes ------------------------------------------------------------

    def create_index(
        self,
        collection_name: str,
        attr: str,
        kind: str,
        *,
        feature_fn: Callable[[Patch], np.ndarray] | None = None,
        multi_value: bool = False,
        params: dict | None = None,
    ):
        """Build an index over ``attr`` of a materialized collection.

        Kinds: ``hash`` (equality), ``btree`` (equality + range), ``rtree``
        (attr must hold (x1, y1, x2, y2) boxes), ``balltree`` (attr must
        hold fixed-dim vectors, or pass ``feature_fn`` / attr='data' to
        index the patch data itself), ``hnsw`` (approximate k-NN graph
        over the same vector sources; ``params`` accepts the build knobs
        ``m``, ``ef_construction``, ``ef``/``ef_search`` and ``seed``).
        ``multi_value=True`` treats the attribute as a collection of keys
        (an inverted index — e.g. OCR token tuples), valid for hash/btree
        kinds.
        """
        if kind not in INDEX_KINDS:
            raise IndexError_(
                f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}"
            )
        if multi_value and kind not in ("hash", "btree"):
            raise IndexError_(
                f"multi_value indexes require hash/btree kinds, not {kind!r}"
            )
        if params and kind != "hnsw":
            raise IndexError_(
                f"index params are only valid for hnsw indexes, not {kind!r}"
            )
        collection = self.collection(collection_name)
        key = (collection_name, attr, kind)
        if kind == "hnsw":
            self._index_params[key] = _normalize_hnsw_params(params)
        index = self._build_index(collection, attr, kind, feature_fn, multi_value)
        if kind == "hnsw":
            # the new (dirty) graph's snapshot rides the same commit as
            # its registration
            self._hnsw_graphs.put(key, index)
        else:
            self._indexes[key] = index
        if key not in self._registered:
            self._registered.append(key)
        if multi_value:
            self._multi_value.add(key)
        else:
            self._multi_value.discard(key)
        # commit barrier: index pages + registration land atomically
        self.sync()
        return index

    def get_index(self, collection_name: str, attr: str, kind: str):
        key = (collection_name, attr, kind)
        if key in self._indexes:
            return self._indexes[key]
        if key in self._registered:
            if kind == "hnsw":
                # the graph reloads from its heap snapshot, or is rebuilt
                # from the collection when that is missing or corrupt
                return self._hnsw_graphs.get(key, create=True)
            if kind in ("hash", "btree"):
                # persistent structures reattach to their on-disk state;
                # repopulating them would double every entry
                index = _persistent_index(self.pager, collection_name, attr, kind)
            else:
                # multi-dimensional indexes are memory-resident: rebuild
                collection = self.collection(collection_name)
                index = self._build_index(
                    collection, attr, kind, None, key in self._multi_value
                )
            self._indexes[key] = index
            return index
        raise IndexError_(
            f"no {kind} index on {collection_name}.{attr}; create_index first"
        )

    def has_index(self, collection_name: str, attr: str, kind: str) -> bool:
        return (collection_name, attr, kind) in self._registered

    def is_multi_value(self, collection_name: str, attr: str, kind: str) -> bool:
        """Whether the index maps each *element* of the attribute (an
        inverted "contains" index) rather than the value itself."""
        return (collection_name, attr, kind) in self._multi_value

    def indexes(self) -> list[tuple[str, str, str]]:
        return list(self._registered)

    def index_params(self, collection_name: str, attr: str, kind: str) -> dict:
        """Build knobs recorded at CREATE INDEX time (empty for kinds
        without knobs)."""
        return dict(self._index_params.get((collection_name, attr, kind), {}))

    def _build_index(
        self,
        collection: MaterializedCollection,
        attr: str,
        kind: str,
        feature_fn: Callable[[Patch], np.ndarray] | None,
        multi_value: bool = False,
    ):
        if kind in ("hash", "btree"):
            index = _persistent_index(self.pager, collection.name, attr, kind)
            # a re-created index reattaches to its previous pages: start
            # empty so no entry is stale or doubled
            if len(index):
                index.clear()
            for patch in collection.scan():
                value = patch.metadata.get(attr)
                if value is None:
                    continue
                for key in _index_keys(value, multi_value):
                    index.insert(key, patch.patch_id)
            return index
        if kind == "rtree":
            index = RTree()
            for patch in collection.scan():
                value = patch.metadata.get(attr)
                if value is not None:
                    index.insert(rect_from_bbox(tuple(value)), patch.patch_id)
            return index
        # balltree / hnsw: both index the same vector sources
        vectors: list[np.ndarray] = []
        ids: list[int] = []
        for patch in collection.scan():
            vector = _patch_vector(patch, attr, feature_fn)
            if vector is None:
                continue
            vectors.append(vector)
            ids.append(patch.patch_id)
        if not vectors:
            raise IndexError_(
                f"collection {collection.name!r} has no vectors under "
                f"{attr!r} to index"
            )
        if kind == "hnsw":
            params = self._index_params.get((collection.name, attr, kind), {})
            return HNSWIndex.build(
                np.stack(vectors), ids, metrics=self.metrics, **params
            )
        return BallTree(np.stack(vectors), ids=ids)

    def _maintain_indexes(self, collection_name: str, patch: Patch) -> None:
        """Keep every registered index current as new patches arrive —
        persistent and HNSW indexes too when not yet resident (they
        reattach or load first)."""
        for key in self._registered:
            name, attr, kind = key
            if name != collection_name:
                continue
            if kind == "balltree" or (
                kind == "rtree" and key not in self._indexes
            ):
                # memory-resident and static (or never built): it is
                # built from the collection on next use
                self._indexes.pop(key, None)
                continue
            if kind == "hnsw":
                vector = _patch_vector(patch, attr, None)
                if vector is None:
                    continue
                index = self.get_index(name, attr, kind)
                # a graph that had to be rebuilt already scanned this
                # patch: the membership check keeps the add idempotent
                if patch.patch_id not in index:
                    index.add(vector, patch.patch_id)
                continue
            value = patch.metadata.get(attr)
            if value is None:
                continue
            index = self.get_index(name, attr, kind)
            if kind == "rtree":
                index.insert(rect_from_bbox(tuple(value)), patch.patch_id)
            else:
                for index_key in _index_keys(value, key in self._multi_value):
                    index.insert(index_key, patch.patch_id)


def _persistent_index(pager: Pager, collection_name: str, attr: str, kind: str):
    """The pager-resident hash or B+ tree index structure for one key."""
    name = f"{collection_name}.{attr}.{kind}"
    return HashIndex(pager, name) if kind == "hash" else BTreeIndex(pager, name)


def _patch_vector(patch: Patch, attr: str, feature_fn) -> np.ndarray | None:
    """The vector one patch contributes to a balltree/hnsw index."""
    if feature_fn is not None:
        vector = feature_fn(patch)
    elif attr == "data":
        vector = patch.data
    else:
        vector = patch.metadata.get(attr)
    if vector is None:
        return None
    return np.asarray(vector, dtype=np.float64).ravel()


def _normalize_hnsw_params(params: dict | None) -> dict:
    """Validate CREATE INDEX knobs against the accepted HNSW set and
    map SQL spellings (``ef``) onto constructor kwargs (``ef_search``)."""
    normalized: dict[str, int] = {}
    for key, value in (params or {}).items():
        target = _HNSW_PARAM_KEYS.get(str(key).lower())
        if target is None:
            raise IndexError_(
                f"unknown hnsw parameter {key!r}; expected one of "
                f"{sorted(set(_HNSW_PARAM_KEYS))}"
            )
        normalized[target] = int(value)
    return normalized


def _index_keys(value, multi_value: bool) -> list:
    """Keys contributed by one attribute value (inverted when multi-value,
    each distinct element once)."""
    if multi_value and isinstance(value, (tuple, list)):
        return list(dict.fromkeys(value))
    return [value]
