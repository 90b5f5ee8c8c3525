"""Benchmark-side tracing: spans around each engine layer's public calls.

Nothing under ``src/`` is modified. :func:`install` replaces the entry
points listed in :data:`ENTRY_POINTS` with wrappers that record one span
(layer, call name, start, end, parent span, op id, phase) while the
:class:`Tracer` is recording, and call straight through otherwise.
:func:`uninstall` puts the originals back. Spans are kept in memory;
:meth:`Tracer.write` saves them when the run ends.

The ``fs`` layer is traced through :class:`CountingFileOps`, the
``FileOps`` object handed to ``DeepLens(fs=...)``: it counts bytes written
per file, writes, truncates and syncs in every run, traced or not.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager

from repro.storage.faultfs import FileOps

#: (layer, module, attribute path) of every wrapped entry point. Calls to
#: ``repro.core.sql`` and ``serialization`` go through module attributes,
#: so patching the attribute reaches every caller.
ENTRY_POINTS = [
    ("sql", "repro.core.sql", "parse"),
    ("sql", "repro.core.sql", "Binder.bind"),
    ("optimizer", "repro.core.session", "QueryBuilder.plan"),
    ("optimizer", "repro.core.session", "plan_pipeline"),
    ("optimizer", "repro.core.optimizer.optimizer", "Optimizer.plan_filter"),
    ("optimizer", "repro.core.optimizer.optimizer", "Optimizer.plan_topk_similarity"),
    ("catalog", "repro.core.catalog", "MaterializedCollection.add"),
    ("catalog", "repro.core.catalog", "MaterializedCollection.get"),
    ("catalog", "repro.core.catalog", "MaterializedCollection.get_many"),
    ("catalog", "repro.core.catalog", "MaterializedCollection.scan_batches"),
    ("catalog", "repro.core.catalog", "MaterializedCollection.metadata_batches"),
    ("catalog", "repro.core.catalog", "Catalog.sync"),
    ("catalog", "repro.core.catalog", "Catalog.materialize"),
    ("catalog", "repro.core.catalog", "Catalog.create_index"),
    ("statistics", "repro.core.statistics", "CollectionStatistics.observe"),
    ("statistics", "repro.core.statistics", "CollectionStatistics.to_value"),
    ("serialization", "repro.storage.kvstore.serialization", "dumps"),
    ("serialization", "repro.storage.kvstore.serialization", "loads"),
    ("heap", "repro.storage.kvstore.heap", "BlobHeap.put"),
    ("heap", "repro.storage.kvstore.heap", "BlobHeap.get"),
    ("heap", "repro.storage.kvstore.heap", "BlobHeap.multi_get"),
    ("heap", "repro.storage.kvstore.heap", "BlobHeap.sync"),
    ("pager", "repro.storage.kvstore.pager", "Pager.read"),
    ("pager", "repro.storage.kvstore.pager", "Pager.write"),
    ("pager", "repro.storage.kvstore.pager", "Pager.sync"),
    ("segment", "repro.storage.metadata_segment", "CollectionSegment.append"),
    ("segment", "repro.storage.metadata_segment", "CollectionSegment.scan_rows"),
    ("segment", "repro.storage.metadata_segment", "CollectionSegment.get_rows"),
    ("segment", "repro.storage.metadata_segment", "MetadataSegmentStore.flush"),
    ("segment", "repro.storage.metadata_segment", "MetadataSegmentStore.sync"),
    ("journal", "repro.storage.journal", "CommitJournal.commit"),
    ("journal", "repro.storage.journal", "CommitJournal.record_pages"),
    ("indexes", "repro.indexes.hnsw", "HNSWIndex.add"),
    ("indexes", "repro.indexes.hnsw", "HNSWIndex.search"),
    ("indexes", "repro.indexes.single_dim", "HashIndex.insert"),
    ("indexes", "repro.indexes.single_dim", "HashIndex.lookup"),
]

#: the operators layer: draining the planned root. The session opens its
#: own ``execute`` span around exactly that, so the benchmark hooks the
#: session's ``span`` factory and nests an ``operators`` span inside it.
EXECUTE = ("operators", "execute")

#: catalog calls that hand rows to the query layers; the outermost one
#: counts its rows as ``catalog.rows_fetched``
ROW_SOURCES = {
    "MaterializedCollection.get",
    "MaterializedCollection.get_many",
    "MaterializedCollection.scan_batches",
    "MaterializedCollection.metadata_batches",
}

LAYERS = (
    "client",
    "sql",
    "optimizer",
    "operators",
    "catalog",
    "statistics",
    "serialization",
    "heap",
    "pager",
    "segment",
    "journal",
    "indexes",
    "fs",
)


class Tracer:
    """In-memory span recorder for one thread.

    Span ``i`` is ``keys[i]`` (an index into :attr:`names`), ``starts[i]``,
    ``ends[i]``, ``parents[i]`` (-1 for a root), ``ops[i]`` (the op id
    current when it opened, -1 outside ops) and ``phases[i]``.
    """

    def __init__(self) -> None:
        self.recording = False
        self.op_id = -1
        self.phase = "setup"
        self.thread = threading.get_ident()
        self.names: list[tuple[str, str]] = []
        self._name_index: dict[tuple[str, str], int] = {}
        self.keys: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.phases: list[str] = []
        self._stack: list[int] = []
        self._fetch_depth = 0
        #: rows handed out by the outermost catalog row source, per phase
        self.rows: Counter = Counter()

    def key(self, layer: str, name: str) -> int:
        pair = (layer, name)
        index = self._name_index.get(pair)
        if index is None:
            index = self._name_index[pair] = len(self.names)
            self.names.append(pair)
        return index

    def active(self) -> bool:
        return self.recording and threading.get_ident() == self.thread

    def open(self, key: int) -> int:
        index = len(self.keys)
        self.keys.append(key)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.phases.append(self.phase)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError("span stack out of order")

    @contextmanager
    def span(self, layer: str, name: str):
        if not self.active():
            yield
            return
        index = self.open(self.key(layer, name))
        try:
            yield
        finally:
            self.close(index)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def write(self, path: str) -> None:
        """Save every span as gzipped JSON, one array per field: span
        ``i`` is ``names[keys[i]]`` from ``starts[i]`` to ``ends[i]``."""
        columns = {
            "names": self.names,
            "keys": self.keys,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "ops": self.ops,
            "phases": self.phases,
        }
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(columns, out)


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    key = tracer.key(layer, name)
    counts_rows = name in ROW_SOURCES

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            if not tracer.active():
                yield from fn(*args, **kwargs)
                return
            iterator = fn(*args, **kwargs)
            outermost = counts_rows and tracer._fetch_depth == 0
            try:
                while True:
                    index = tracer.open(key)
                    tracer._fetch_depth += counts_rows
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._fetch_depth -= counts_rows
                        tracer.close(index)
                    if outermost:
                        tracer.rows[tracer.phase] += len(item)
                    yield item
            finally:
                iterator.close()

        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active():
            return fn(*args, **kwargs)
        outermost = counts_rows and tracer._fetch_depth == 0
        index = tracer.open(key)
        tracer._fetch_depth += counts_rows
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer._fetch_depth -= counts_rows
            tracer.close(index)
        if outermost:
            tracer.rows[tracer.phase] += len(result) if isinstance(result, list) else 1
        return result

    return traced


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> list:
    """Wrap every entry point; returns what :func:`uninstall` needs."""
    saved = []
    for layer, module_name, path in ENTRY_POINTS:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, layer, path, original))

    session = importlib.import_module("repro.core.session")
    engine_span = session.span
    execute_key = tracer.key(*EXECUTE)

    @contextmanager
    def execute_span(engine_cm):
        with engine_cm as opened:
            index = tracer.open(execute_key)
            try:
                yield opened
            finally:
                tracer.close(index)

    def hooked_span(name, *args, **kwargs):
        engine_cm = engine_span(name, *args, **kwargs)
        if name != "execute" or not tracer.active():
            return engine_cm
        return execute_span(engine_cm)

    saved.append((session, "span", engine_span))
    session.span = hooked_span
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


class CountingFileOps(FileOps):
    """``FileOps`` that counts device traffic per file and traces it.

    Counts bytes written, writes, truncates and syncs keyed by file base
    name; with a recording tracer each call is also an ``fs`` span.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.write_bytes: Counter = Counter()
        self.writes: Counter = Counter()
        self.truncates: Counter = Counter()
        self.syncs: Counter = Counter()
        self._write_key = tracer.key("fs", "write")
        self._truncate_key = tracer.key("fs", "truncate")
        self._sync_key = tracer.key("fs", "sync")

    def open(self, path, mode):
        return _CountedFile(open(path, mode), os.path.basename(os.fspath(path)), self)

    def sync_file(self, file, durability: str = "fsync") -> None:
        raw = file._raw if isinstance(file, _CountedFile) else file
        name = file._name if isinstance(file, _CountedFile) else "?"
        self.syncs[name] += 1
        traced = self.tracer.active()
        index = self.tracer.open(self._sync_key) if traced else -1
        try:
            super().sync_file(raw, durability)
        finally:
            if traced:
                self.tracer.close(index)

    def total_bytes(self) -> int:
        return sum(self.write_bytes.values())

    @staticmethod
    def written(snapshot: dict) -> int:
        """Total bytes written according to a :meth:`snapshot`."""
        return sum(v for k, v in snapshot.items() if k.startswith("fs.write_bytes."))

    def snapshot(self) -> dict:
        out = {f"fs.write_bytes.{name}": n for name, n in self.write_bytes.items()}
        out["fs.writes"] = sum(self.writes.values())
        out["fs.truncates"] = sum(self.truncates.values())
        out["fs.syncs"] = sum(self.syncs.values())
        return out


class _CountedFile:
    """File handle that reports every mutation to its CountingFileOps."""

    def __init__(self, raw, name: str, ops: CountingFileOps) -> None:
        self._raw = raw
        self._name = name
        self._ops = ops

    def write(self, data) -> int:
        ops = self._ops
        ops.writes[self._name] += 1
        ops.write_bytes[self._name] += len(data)
        if not ops.tracer.active():
            return self._raw.write(data)
        index = ops.tracer.open(ops._write_key)
        try:
            return self._raw.write(data)
        finally:
            ops.tracer.close(index)

    def truncate(self, size=None) -> int:
        ops = self._ops
        ops.truncates[self._name] += 1
        traced = ops.tracer.active()
        index = ops.tracer.open(ops._truncate_key) if traced else -1
        try:
            return self._raw.truncate() if size is None else self._raw.truncate(size)
        finally:
            if traced:
                ops.tracer.close(index)

    def __getattr__(self, attr):
        # reads, seeks, flush, fileno, close: straight to the real file
        return getattr(self._raw, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._raw.close()
        return False
