"""Repository benchmark: one seeded workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 12 --trace 0

Workloads (sizes and reasons in ``perfbench/spec.json``): ``analytics``
(read-only query mix), ``commit-stream`` (one-row commits with read-back
checks) and ``ann`` (HNSW top-10 similarity queries). One process, one
closed-loop client, ``workers=1``, ``durability="flush"``.

A run builds the starting database several times (``setup_s`` is the
median), checks that a deliberately wrong expected answer is counted as
a failure, warms up, then runs the seeded op sequence for ``--seconds``,
checking every answer against an oracle built from the generated inputs.
Twenty close + reopen + verified-first-read cycles are spread over the same
time; the end-of-run checks follow. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports per-layer metrics from spans the benchmark
wraps around each layer's public calls (every other op and reopen is
traced, so the tracing overhead is the traced value minus the untraced
one), plus exact counts from replaying the first ops twice on copies of
the set-up database.

End-to-end metrics (every workload): ``setup_s``, the median set-up time;
``p50_norm_ms``, the geometric mean over the workload's op classes of each
class's median latency after host-speed normalization (``hostspeed.py``;
commit-stream uses its first 200 commits); ``answer_recall``;
``write_amp`` (catalog bytes written per user byte: over those commits on
commit-stream, over the setup load elsewhere); ``space_amp`` (catalog bytes
on disk per user byte stored); ``reopen_norm_s`` (median normalized
close + reopen + first-read cycle). User bytes are pixel bytes plus the
canonical JSON of each patch's metadata, computed from the generated
inputs.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines starting with ``#`` before it are
details: per class the sample count, raw and normalized median and
highest percentile with ten samples beyond it, and ops/s; setup
attribution; and any count that differed between the two replays.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from itertools import islice

from hostspeed import REFERENCE_S, SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: what building, testing and running leave behind (listed in .gitignore)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_traces")

E2E = (
    ("setup_s", "s"),
    ("p50_norm_ms", "ms"),
    ("answer_recall", "ratio"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("reopen_norm_s", "s"),
)
REOPEN_CYCLES = 20


class HarnessError(Exception):
    """The benchmark itself misbehaved; no result is printed."""


@dataclass
class Record:
    cls: str
    latency: float
    ok: bool
    recall: float
    traced: bool
    write_bytes: int
    user_bytes: int
    commits: int
    rows_out: int
    started: float


def run_op(op, db, fs, tracer, *, traced: bool, root_key: int, expect_failure=False) -> Record:
    """Run one op (timed), then check its answer (untimed)."""
    before = fs.total_bytes()
    tracer.recording = traced
    started = time.perf_counter()
    index = tracer.open(root_key) if traced else -1
    try:
        result, error = op.run(db), None
    except Exception as exc:  # an engine error is a failed op, not a crash
        result, error = None, exc
    finally:
        if traced:
            tracer.close(index)
        tracer.recording = False
    latency = time.perf_counter() - started
    if error is not None:
        print(f"# op {op.cls} raised {type(error).__name__}: {error}")
        ok, recall = False, 0.0
    else:
        try:
            ok, recall = op.check(result)
        except Exception as exc:
            print(f"# op {op.cls} answer unreadable: {type(exc).__name__}: {exc}")
            ok, recall = False, 0.0
        if not ok and not expect_failure:
            print(f"# op {op.cls} returned a wrong answer")
    rows_out = len(result) if isinstance(result, (list, tuple, dict)) else 1
    return Record(
        op.cls, latency, ok, recall, traced,
        fs.total_bytes() - before, op.user_bytes, op.commits, rows_out, started,
    )


# -- statistics -------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it:
    ``(value, percentile, sample count)``; the maximum when n <= 10."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_metrics(records: list[Record], classes, speed) -> dict:
    """``p50_norm_ms``: geometric mean over the op classes of each class's
    median host-speed-normalized latency (see ``hostspeed``)."""
    medians = []
    for cls in classes:
        norm = [speed.normalize(r.latency, r.started) for r in records if r.cls == cls]
        if norm:
            medians.append(statistics.median(norm))
    return {
        "p50_norm_ms": 1000 * geomean(medians),
        "answer_recall": statistics.fmean(r.recall for r in records),
    }


def commit_write_amp(commits: list[Record]) -> float:
    return sum(r.write_bytes for r in commits) / sum(r.user_bytes for r in commits)


def catalog_bytes(path: str) -> int:
    catalog = os.path.join(path, "catalog")
    return sum(entry.stat().st_size for entry in os.scandir(catalog) if entry.is_file())


# -- one run -----------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        from tracing import CountingFileOps, Tracer
        from workloads import WORKLOADS

        with open(os.path.join(HERE, "spec.json")) as f:
            self.spec = json.load(f)["workloads"][workload]
        self.make_workload = lambda: WORKLOADS[workload](self.spec, seed)
        self.CountingFileOps = CountingFileOps
        self.name, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.tracer = Tracer()
        self.root_key = self.tracer.key("client", "op")
        self.work = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.info: list[str] = []
        self.speed = SpeedProbe()

    def note(self, text: str) -> None:
        self.info.append(text)

    def count(self, record: Record) -> Record:
        self.attempted += 1
        self.failed += not record.ok
        return record

    def open_db(self, path, fs):
        from repro.core import DeepLens

        return DeepLens(path, durability="flush", fs=fs)

    # -- phases ---------------------------------------------------------

    def setup(self, wl) -> None:
        """Build the starting database ``setup_reps`` times; the last one
        (traced in a trace run) is the one the run uses."""
        reps = self.spec["setup_reps"]
        self.setups = []
        raw = []
        for rep in range(reps):
            path = os.path.join(self.work, f"setup{rep}")
            fs = self.CountingFileOps(self.tracer)
            traced = self.trace and rep == reps - 1
            self.tracer.phase = "setup"
            self.speed.sample(force=True)
            started, spent = time.perf_counter(), self.speed.spent
            self.tracer.recording = traced
            with self.tracer.span("client", "setup"):
                db = self.open_db(path, fs)
                # no reference runs inside a traced set-up: it would land in
                # the spans of the calls that consume the rows
                wl.setup(db, (lambda: None) if traced else self.speed.sample)
                db.close()
            self.tracer.recording = False
            self.speed.sample(force=True)
            ended = time.perf_counter()
            # the reference runs between rows; its own time is not set-up
            elapsed = ended - started - (self.speed.spent - spent)
            raw.append(elapsed)
            normalized = elapsed * REFERENCE_S / self.speed.between(started, ended)
            self.setups.append((normalized, fs.snapshot(), traced))
            if rep < reps - 1:
                shutil.rmtree(path)
        self.db_path = path
        self.note(
            "setup seconds raw: " + ", ".join(f"{s:.3f}" for s in raw)
            + "; normalized: " + ", ".join(f"{s:.3f}" for s, _, _ in self.setups)
        )

    def selftest(self, wl, db, fs) -> None:
        record = run_op(
            wl.selftest_op(), db, fs, self.tracer,
            traced=False, root_key=self.root_key, expect_failure=True,
        )
        if record.ok:
            raise HarnessError("self-test: a wrong expected answer was not counted as a failure")
        self.note("self-test: wrong expected answer counted as a failure")

    def loop(self, wl, db, fs):
        """Warm up, then run the seeded ops until the deadline. The
        ``REOPEN_CYCLES`` close + reopen + first-read cycles are spread
        evenly over the same time, so their fastest one is taken across
        the host's slow and fast spells rather than inside one of them."""
        self.tracer.phase = "warmup"
        for op in wl.warmup_ops():
            self.count(run_op(op, db, fs, self.tracer, traced=False, root_key=self.root_key))
        prefix = self.spec["prefix_commits"]
        self.space_at_prefix = None
        self.reopens: list[tuple[float, bool]] = []
        committed = 0
        records: list[Record] = []
        sequence = wl.ops()
        self.speed.sample(force=True)
        started = time.perf_counter()
        deadline = started + self.seconds
        period = self.seconds / (REOPEN_CYCLES + 1)
        while True:
            now = time.perf_counter()
            due = len(self.reopens) < REOPEN_CYCLES and now >= started + period * (len(self.reopens) + 1)
            if due or (now >= deadline and len(self.reopens) < REOPEN_CYCLES):
                db = self.reopen(wl, db, fs)
                continue
            if now >= deadline:
                break
            self.tracer.phase = "ops"
            self.tracer.op_id = len(records)
            traced = self.trace and len(records) % 2 == 1
            record = run_op(next(sequence), db, fs, self.tracer, traced=traced, root_key=self.root_key)
            records.append(self.count(record))
            self.speed.sample()
            committed += record.commits if record.ok else 0
            if record.commits and committed == prefix:
                # space is measured after a fixed number of commits, so a
                # faster engine (more commits per run) does not read worse
                self.space_at_prefix = catalog_bytes(self.db_path) / wl.stored_user_bytes()
        self.tracer.op_id = -1
        self.speed.sample(force=True)
        return db, records

    def reopen(self, wl, db, fs):
        """One timed close + reopen + verified first read."""
        self.tracer.phase = "reopen"
        traced = self.trace and len(self.reopens) % 2 == 1
        self.tracer.recording = traced
        started = time.perf_counter()
        try:
            with self.tracer.span("client", "reopen"):
                db.close()
                db = self.open_db(self.db_path, fs)
                ok = wl.probe_read(db)
        except Exception as exc:
            print(f"# reopen raised {type(exc).__name__}: {exc}")
            ok = False
        elapsed = time.perf_counter() - started
        self.tracer.recording = False
        self.attempted += 1
        self.failed += not ok
        self.reopens.append((elapsed, traced, started))
        self.speed.sample()
        return db

    def replay_counts(self, label: str) -> dict:
        """Replay the first ops of the seeded sequence on a fresh copy of
        the set-up database; return every count the layers report."""
        wl = self.make_workload()
        path = os.path.join(self.work, f"count{label}")
        shutil.copytree(self.db_path, path)
        fs = self.CountingFileOps(self.tracer)
        phase = f"count{label}"
        self.tracer.phase = phase
        db = self.open_db(path, fs)
        before_fs, before = fs.snapshot(), db.metrics()
        first_span = len(self.tracer.keys)
        rows_out = 0
        # ops are made lazily: a read-back's expected answer depends on
        # the commits acknowledged before it
        for op in islice(wl.ops(), wl.count_prefix()):
            record = self.count(run_op(op, db, fs, self.tracer, traced=True, root_key=self.root_key))
            rows_out += record.rows_out
        counts = _metric_counts(before, db.metrics())
        after_fs = fs.snapshot()
        for key in set(before_fs) | set(after_fs):
            counts[key] = after_fs.get(key, 0) - before_fs.get(key, 0)
        calls = _span_calls(self.tracer, first_span)
        counts["optimizer.plans"] = calls.get("plan_pipeline", 0)
        counts["indexes.hash_probes"] = calls.get("HashIndex.lookup", 0)
        counts["serialization.calls"] = calls.get("dumps", 0) + calls.get("loads", 0)
        counts["operators.rows_out"] = rows_out
        counts["catalog.rows_fetched"] = self.tracer.rows[phase]
        counts["counts.ops"] = wl.count_prefix()
        from repro.storage.kvstore import serialization

        stats = db.catalog.statistics_for(wl.collection)
        counts["statistics.snapshot_bytes"] = len(serialization.dumps(stats.to_value()))
        db.close()
        shutil.rmtree(path)
        return counts

    # -- the whole run ----------------------------------------------------

    def execute(self) -> dict:
        os.makedirs(self.work)
        wl = self.make_workload()
        self.note(f"inputs sha256 prefix: {wl.rows.digest()}")
        self.setup(wl)
        if self.trace:
            counts_a, counts_b = self.replay_counts("A"), self.replay_counts("B")
        fs = self.CountingFileOps(self.tracer)
        db = self.open_db(self.db_path, fs)
        self.selftest(wl, db, fs)
        db, records = self.loop(wl, db, fs)
        self.tracer.phase = "verify"
        self.tracer.recording = self.trace
        attempted, failed = wl.final_checks(db)
        self.tracer.recording = False
        self.attempted += attempted
        self.failed += failed
        db.close()
        end_space = catalog_bytes(self.db_path) / wl.stored_user_bytes()
        space_amp = self.space_at_prefix or end_space
        if self.spec["prefix_commits"] and self.space_at_prefix is None:
            self.note(f"fewer than {self.spec['prefix_commits']} commits: amplification is over all of them")

        e2e = self.end_to_end(wl, records, space_amp)
        if not self.trace:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E}
        else:
            from report import per_layer

            metrics = per_layer(self, wl, records, e2e, counts_a, counts_b, E2E)
            os.makedirs(TRACE_DIR, exist_ok=True)
            self.tracer.write(os.path.join(TRACE_DIR, f"{self.name}-seed{self.seed}.spans.json.gz"))
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def end_to_end(self, wl, records: list[Record], space_amp: float, subset=None) -> dict:
        """End-to-end metrics over ``records`` (and the matching setup and
        reopen samples when ``subset`` is True/False for traced/untraced)."""
        pick = (lambda traced: True) if subset is None else (lambda traced: traced == subset)
        prefix = self.spec["prefix_commits"]
        # a commit's cost follows the segment tail's sawtooth (it drops at
        # each 1024-row block seal), so commit metrics use the same first
        # ``prefix`` commits in every run, however many the run completes
        commits = [r for r in records if r.commits and r.ok][:prefix]
        recs = [r for r in records if not r.commits or r in commits]
        recs = [r for r in recs if pick(r.traced)]
        classes = self.spec["op_classes"]
        out = latency_metrics(recs, classes, self.speed)
        setups = [s for s in self.setups if pick(s[2])]
        out["setup_s"] = statistics.median(s for s, _, _ in setups)
        if commits:
            out["write_amp"] = commit_write_amp([r for r in commits if pick(r.traced)])
        else:
            written = statistics.median(self.CountingFileOps.written(snap) for _, snap, _ in setups)
            out["write_amp"] = written / wl.setup_user_bytes
        out["space_amp"] = space_amp
        out["reopen_norm_s"] = statistics.median(
            self.speed.normalize(t, at) for t, traced, at in self.reopens if pick(traced)
        )
        if subset is None:
            for cls in classes:
                lat = [r.latency for r in recs if r.cls == cls]
                if not lat:
                    continue
                norm = [self.speed.normalize(r.latency, r.started) for r in recs if r.cls == cls]
                value, pct, n = tail(lat)
                self.note(
                    f"{cls}: n={n}, raw p50 {1000 * statistics.median(lat):.3f} ms, "
                    f"p{pct:.1f} {1000 * value:.3f} ms, {n / sum(lat):.2f} ops/s; "
                    f"normalized p50 {1000 * statistics.median(norm):.3f} ms, "
                    f"p{pct:.1f} {1000 * tail(norm)[0]:.3f} ms"
                )
            raw = [t for t, _, _ in self.reopens]
            self.note(f"reopen: raw median {statistics.median(raw):.4f} s, n={len(raw)}")
            self.note(
                f"host reference: median {1000 * statistics.median(self.speed.durations):.4f} ms, "
                f"n={len(self.speed.durations)}"
            )
        return out


def _metric_counts(before: dict, after: dict) -> dict:
    """Engine registry deltas under the benchmark's count names."""

    def counter(name):
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def hist_sum(name):
        a = after["histograms"].get(name, {"sum": 0})["sum"]
        return a - before["histograms"].get(name, {"sum": 0})["sum"]

    hits = counter('deeplens_pager_page_reads_total{result="hit"}')
    misses = counter('deeplens_pager_page_reads_total{result="miss"}')
    scanned = counter("deeplens_zonemap_blocks_scanned_total")
    skipped = counter("deeplens_zonemap_blocks_skipped_total")
    return {
        "pager.hits": hits,
        "pager.misses": misses,
        "pager.page_writes": counter("deeplens_pager_page_writes_total"),
        "pager.evictions": counter("deeplens_pager_page_evictions_total"),
        "heap.reads": counter('deeplens_heap_reads_total{store="blob"}'),
        "heap.read_bytes": counter('deeplens_heap_read_bytes_total{store="blob"}'),
        "heap.write_bytes": counter('deeplens_heap_write_bytes_total{store="blob"}'),
        "segment.blocks_scanned": scanned,
        "segment.blocks_skipped": skipped,
        "journal.commits": counter("deeplens_journal_commits_total"),
        "journal.page_images": counter("deeplens_journal_page_images_total"),
        "hnsw.searches": counter("deeplens_ann_probes_total"),
        "hnsw.hops": hist_sum("deeplens_ann_hops"),
        "hnsw.candidates": hist_sum("deeplens_ann_candidates"),
    }


def _span_calls(tracer, first: int) -> dict:
    calls: dict[str, int] = {}
    for key in tracer.keys[first:]:
        name = tracer.names[key][1]
        calls[name] = calls.get(name, 0) + 1
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no engine sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(os.path.join(HERE, "spec.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(workloads)}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    saved = []
    try:
        if run.trace:
            from tracing import install

            saved = install(run.tracer)
        result = run.execute()
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        if saved:
            from tracing import uninstall

            uninstall(saved)
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    for line in run.info:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
