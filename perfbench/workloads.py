"""The benchmark's three seeded workloads and their answer oracles.

Every input comes from ``numpy.random.default_rng`` streams derived from
the run's seed, so one seed gives byte-identical rows and the same op
sequence. Expected answers are computed from those inputs alone (never
from another engine path), and a returned patch counts as correct only
if its frame number, pixels and metadata equal the generated row.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.patch import Patch
from repro.core.udf import attribute_key

LABELS = ("vehicle", "person", "bike", "sign")
SOURCE = "cam0"


def canonical_json(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Op:
    """One closed-loop operation: ``run`` calls the engine (timed),
    ``check`` compares the answer with the oracle and returns
    ``(correct, recall)``; ``commits`` rows it writes (for write_amp)."""

    cls: str
    run: Callable[[Any], Any]
    check: Callable[[Any], tuple[bool, float]]
    user_bytes: int = 0
    commits: int = 0


class Rows:
    """Generated patches: frame-ordered pixels plus user metadata."""

    def __init__(self, rng, n: int, shape, *, first_frame: int = 0, embeddings=None):
        self.first_frame = first_frame
        self.pixels = rng.integers(0, 256, (n, *shape), dtype=np.uint8)
        self.labels = rng.integers(0, len(LABELS), n)
        self.scores = rng.random(n)
        self.embeddings = embeddings
        self.meta = []
        for i in range(n):
            meta = {
                "frameno": first_frame + i,
                "label": LABELS[self.labels[i]],
                "score": float(self.scores[i]),
            }
            if embeddings is not None:
                meta["emb"] = [float(x) for x in embeddings[i]]
            self.meta.append(meta)
        row_pixels = int(np.prod(shape))
        #: user bytes per row: pixel bytes + canonical JSON of the metadata
        self.user_bytes = [row_pixels + len(canonical_json(m)) for m in self.meta]

    def __len__(self) -> int:
        return len(self.meta)

    def patch(self, i: int) -> Patch:
        extra = {k: v for k, v in self.meta[i].items() if k != "frameno"}
        return Patch.from_frame(SOURCE, self.first_frame + i, self.pixels[i], **extra)

    def patches(self, tick=None):
        """Every row as a patch; ``tick()`` runs before each one."""
        for i in range(len(self)):
            if tick is not None:
                tick()
            yield self.patch(i)

    def digest(self) -> str:
        h = hashlib.sha256(self.pixels.tobytes())
        for meta in self.meta:
            h.update(canonical_json(meta))
        return h.hexdigest()[:16]

    def index_of(self, patch: Patch) -> int:
        """Row index of a returned patch, or -1 unless it equals its input."""
        i = patch.metadata.get("frameno", -1) - self.first_frame
        if not 0 <= i < len(self):
            return -1
        meta = self.meta[i]
        for key, value in meta.items():
            if key == "emb":
                if not np.array_equal(np.asarray(patch.metadata.get(key)), self.embeddings[i]):
                    return -1
            elif patch.metadata.get(key) != value:
                return -1
        if patch.data.size and not np.array_equal(patch.data, self.pixels[i]):
            return -1
        return i


def check_row_set(rows: Rows, patches, expected: set[int]):
    """Row-id-set oracle: every returned patch carries its pixels and
    equals its input row, no duplicates, and the set of rows equals
    ``expected``."""
    got = []
    for patch in patches:
        if patch.data.size == 0:
            return False, 0.0
        i = rows.index_of(patch)
        if i < 0:
            return False, 0.0
        got.append(i)
    seen = set(got)
    recall = len(seen & expected) / len(expected) if expected else 1.0
    return len(seen) == len(got) and seen == expected, recall


def _streams(seed: int):
    """Independent generators for rows, the op sequence and warm-up."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


class Workload:
    name = ""

    def __init__(self, spec: dict, seed: int) -> None:
        self.collection = spec["collection"]
        self.data_rng, self.op_rng, self.warmup_rng = _streams(seed)
        self.rows: Rows
        #: (patch id, Rows, row index) of a row read back correctly; the
        #: first read after every reopen fetches it again
        self.probe: tuple[int, Rows, int] | None = None

    @property
    def setup_user_bytes(self) -> int:
        return sum(self.rows.user_bytes)

    def stored_user_bytes(self) -> int:
        return self.setup_user_bytes

    def setup(self, db, tick) -> None:
        """Build the starting database; ``tick()`` may run between rows."""
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        raise NotImplementedError

    def selftest_op(self) -> Op:
        """A read-only op whose expected answer is deliberately wrong."""
        raise NotImplementedError

    def count_prefix(self) -> int:
        """How many ops of the seeded sequence the count phase replays."""
        raise NotImplementedError

    def final_checks(self, db) -> tuple[int, int]:
        """(attempted, failed) of the end-of-run checks."""
        return 0, 0

    def probe_read(self, db) -> bool:
        pid, rows, i = self.probe
        patch = db.collection(self.collection).get_many([pid])[0]
        return rows.index_of(patch) == i

    def _remember(self, rows: Rows, patches) -> None:
        for patch in patches:
            i = rows.index_of(patch)
            if i >= 0 and patch.patch_id is not None:
                self.probe = (patch.patch_id, rows, i)
                return


class Analytics(Workload):
    name = "analytics"

    def __init__(self, spec: dict, seed: int) -> None:
        super().__init__(spec, seed)
        self.n = spec["rows"]
        self.rows = Rows(self.data_rng, self.n, spec["patch_shape"])
        self.histogram = dict(Counter(LABELS[l] for l in self.rows.labels))

    def setup(self, db, tick) -> None:
        db.materialize(self.rows.patches(tick), self.collection)
        db.sql(f"CREATE INDEX ON {self.collection} (label) USING hash")

    def ops(self):
        rng = self.op_rng
        while True:
            classes = ["fetch", "lookup", "group", "scan"] * 2 + ["count"] * 5
            rng.shuffle(classes)
            for cls in classes:
                yield self._make(cls, rng)

    def warmup_ops(self) -> list[Op]:
        classes = ("fetch", "lookup", "count", "group", "scan")
        return [self._make(c, self.warmup_rng) for c in classes]

    def selftest_op(self) -> Op:
        return self._make("count", self.warmup_rng, expect_offset=1)

    def count_prefix(self) -> int:
        return 13

    def _make(self, cls: str, rng, *, expect_offset: int = 0) -> Op:
        rows, name = self.rows, self.collection
        if cls == "fetch":
            lo = int(rng.integers(0, self.n - 41))
            sql = f"SELECT * FROM {name} WHERE frameno BETWEEN {lo} AND {lo + 40}"
            expected = set(range(lo, lo + 41))
            return self._row_op(cls, sql, expected)
        if cls == "lookup":
            label = int(rng.integers(0, len(LABELS)))
            threshold = round(float(rng.uniform(0.975, 0.985)), 4)
            sql = (
                f"SELECT * FROM {name} WHERE label = '{LABELS[label]}' "
                f"AND score > {threshold}"
            )
            hits = (rows.labels == label) & (rows.scores > threshold)
            return self._row_op(cls, sql, set(np.nonzero(hits)[0].tolist()))
        if cls == "count":
            lo = int(rng.integers(0, self.n - 300))
            hi = min(self.n - 1, lo + int(rng.integers(300, 900)))
            sql = f"SELECT COUNT(*) FROM {name} WHERE frameno BETWEEN {lo} AND {hi}"
            expected = hi - lo + 1 + expect_offset
            return Op(cls, lambda db: db.sql(sql), lambda got: _scalar(got == expected))
        if cls == "group":
            expected = self.histogram
            key = attribute_key("label")
            return Op(
                cls,
                lambda db: db.scan(name).aggregate("group", key=key),
                lambda got: _scalar(dict(got) == expected),
            )
        if cls == "scan":
            return self._row_op(cls, f"SELECT * FROM {name}", set(range(self.n)))
        raise ValueError(cls)

    def _row_op(self, cls: str, sql: str, expected: set[int]) -> Op:
        def check(patches):
            result = check_row_set(self.rows, patches, expected)
            if result[0] and self.probe is None:
                self._remember(self.rows, patches)
            return result

        return Op(cls, lambda db: db.sql(sql), check)


class CommitStream(Workload):
    name = "commit-stream"

    def __init__(self, spec: dict, seed: int) -> None:
        super().__init__(spec, seed)
        self.n = spec["rows"]
        self.shape = spec["patch_shape"]
        self.rows = Rows(self.data_rng, self.n, self.shape)
        #: rows the timed phase commits, generated in seeded chunks
        self.new_rows: list[Rows] = []
        self.attempted_new = 0
        #: (patch id, chunk, row index) of every acknowledged commit
        self.acked: list[tuple[int, Rows, int]] = []
        self._acked_ids: set[int] = set()
        self._op_index = 0

    def stored_user_bytes(self) -> int:
        return self.setup_user_bytes + sum(r.user_bytes[i] for _, r, i in self.acked)

    def setup(self, db, tick) -> None:
        db.materialize(self.rows.patches(tick), self.collection)

    def _next_new_row(self) -> tuple[Rows, int]:
        chunk, i = divmod(self.attempted_new, 1024)
        if chunk == len(self.new_rows):
            self.new_rows.append(
                Rows(self.data_rng, 1024, self.shape, first_frame=self.n + chunk * 1024)
            )
        self.attempted_new += 1
        return self.new_rows[chunk], i

    def ops(self):
        while True:
            self._op_index += 1
            yield self._readback() if self._op_index % 10 == 0 else self._commit()

    def _commit(self) -> Op:
        rows, i = self._next_new_row()
        patch = rows.patch(i)
        name = self.collection

        def run(db):
            pid = db.collection(name).add(patch)
            db.catalog.sync()
            return pid

        def check(pid):
            if not isinstance(pid, int) or pid in self._acked_ids:
                return False, 0.0
            self._acked_ids.add(pid)
            self.acked.append((pid, rows, i))
            self.probe = (pid, rows, i)
            return True, 1.0

        return Op("commit", run, check, user_bytes=rows.user_bytes[i], commits=1)

    def _readback(self, *, expect_offset: int = 0) -> Op:
        name = self.collection
        hi = self.n + self.attempted_new - 1
        sql = f"SELECT COUNT(*) FROM {name} WHERE frameno BETWEEN {self.n} AND {hi}"
        expected = len(self.acked) + expect_offset
        last = self.acked[-1] if self.acked else None

        def run(db):
            count = db.sql(sql)
            patch = db.collection(name).get(last[0]) if last else None
            return count, patch

        def check(answer):
            count, patch = answer
            ok = count == expected
            if last is not None:
                ok = ok and last[1].index_of(patch) == last[2]
            return _scalar(ok)

        return Op("readback", run, check)

    def warmup_ops(self) -> list[Op]:
        name, last = self.collection, self.n - 1
        count_sql = f"SELECT COUNT(*) FROM {name} WHERE frameno BETWEEN 0 AND {last}"
        find_sql = f"SELECT * FROM {name} METADATA ONLY WHERE frameno = {last}"

        def run(db):
            # the first get() builds the collection's id map: pay it here
            (found,) = db.sql(find_sql)
            return db.sql(count_sql), db.collection(name).get(found.patch_id)

        def check(answer):
            count, patch = answer
            ok = count == self.n and self.rows.index_of(patch) == last
            if ok:
                self.probe = (patch.patch_id, self.rows, last)
            return _scalar(ok)

        return [Op("readback", run, check)]

    def selftest_op(self) -> Op:
        return self._readback(expect_offset=1)

    def count_prefix(self) -> int:
        # 90 commits and 10 read-backs: crosses the segment block seal
        # that the 40th commit makes at 10200 rows
        return 100

    def final_checks(self, db) -> tuple[int, int]:
        """After the last reopen: every acknowledged row reads back equal
        to its input, and the collection holds exactly setup + acked rows.
        Each acknowledged row that fails counts as one failed op."""
        collection = db.collection(self.collection)
        patches = collection.get_many([pid for pid, _, _ in self.acked])
        failed = sum(
            rows.index_of(patch) != i
            for patch, (_, rows, i) in zip(patches, self.acked)
        )
        total = db.sql(f"SELECT COUNT(*) FROM {self.collection}")
        failed += total != self.n + len(self.acked)
        return len(self.acked) + 1, failed


class Ann(Workload):
    name = "ann"
    N_QUERIES = 256
    K = 10

    def __init__(self, spec: dict, seed: int) -> None:
        super().__init__(spec, seed)
        self.n = spec["rows"]
        dim, centres = spec["embedding_dim"], spec["embedding_centres"]
        rng = self.data_rng
        centre_vectors = rng.normal(scale=4.0, size=(centres, dim))
        assignment = rng.integers(0, centres, size=self.n)
        embeddings = centre_vectors[assignment] + rng.normal(scale=1.0, size=(self.n, dim))
        self.rows = Rows(rng, self.n, spec["patch_shape"], embeddings=embeddings)
        picks = self.op_rng.integers(0, self.n, size=self.N_QUERIES)
        self.queries = embeddings[picks] + self.op_rng.normal(scale=0.1, size=(self.N_QUERIES, dim))
        self.truth = []
        for query in self.queries:
            dists = np.einsum("ij,ij->i", embeddings - query, embeddings - query)
            self.truth.append(set(np.argsort(dists, kind="stable")[: self.K].tolist()))

    def setup(self, db, tick) -> None:
        db.materialize(self.rows.patches(tick), self.collection)
        db.sql(f"CREATE INDEX ON {self.collection} (emb) USING hnsw (m = 8, ef = 48)")

    def ops(self):
        while True:
            yield self._topk(int(self.op_rng.integers(0, self.N_QUERIES)))

    def warmup_ops(self) -> list[Op]:
        return [self._topk(q) for q in range(8)]

    def selftest_op(self) -> Op:
        op = self._topk(0)
        wrong = {i + 1 for i in self.truth[0]}
        op.check = lambda got: self._check(got, self.queries[0], wrong, exact=True)
        return op

    def count_prefix(self) -> int:
        return 64

    def _topk(self, q: int) -> Op:
        query, truth = self.queries[q], self.truth[q]
        sql = f"SELECT * FROM {self.collection} ORDER BY SIMILARITY LIMIT {self.K}"
        return Op(
            "topk",
            lambda db: db.sql(sql, query_vector=query, vector_attr="emb"),
            lambda got: self._check(got, query, truth),
        )

    def _check(self, patches, query, truth: set[int], *, exact: bool = False):
        """Well-formed: k distinct rows equal to their inputs, nearest
        first. Recall against the brute-force top-k is reported, and only
        fails the op when ``exact`` is asked for."""
        found = []
        for patch in patches:
            i = self.rows.index_of(patch)
            if i < 0:
                return False, 0.0
            found.append(i)
        if len(found) != self.K or len(set(found)) != self.K:
            return False, 0.0
        emb = self.rows.embeddings
        dists = [float(np.linalg.norm(emb[i] - query)) for i in found]
        if any(a > b + 1e-9 for a, b in zip(dists, dists[1:])):
            return False, 0.0
        recall = len(set(found) & truth) / self.K
        if self.probe is None:
            self._remember(self.rows, patches)
        return (recall == 1.0 if exact else True), recall


def _scalar(ok: bool) -> tuple[bool, float]:
    return bool(ok), 1.0 if ok else 0.0


WORKLOADS = {cls.name: cls for cls in (Analytics, CommitStream, Ann)}
