"""Per-layer metrics of a traced run (``--trace 1``).

Times come from the spans of the traced setup, the traced half of the
timed ops, the traced reopens and the end-of-run checks. Counts come from
the two replays of the op-sequence prefix (``countA``/``countB``): every
count must repeat exactly, and ``counts.mismatched`` says how many did not.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS

#: (metric, call name, statistic, scale, unit): per-call mean duration
#: ("mean") or mean self time ("self") of one wrapped entry point. Every
#: workload calls each of these in its traced phases.
CALL_TIMES = (
    ("sql.parse_us", "parse", "mean", 1e6, "us"),
    ("sql.bind_us", "Binder.bind", "mean", 1e6, "us"),
    ("operators.execute_ms", "execute", "mean", 1e3, "ms"),
    ("catalog.add_us", "MaterializedCollection.add", "mean", 1e6, "us"),
    ("catalog.sync_self_ms", "Catalog.sync", "self", 1e3, "ms"),
    ("catalog.get_many_ms", "MaterializedCollection.get_many", "mean", 1e3, "ms"),
    ("catalog.materialize_s", "Catalog.materialize", "mean", 1.0, "s"),
    ("statistics.observe_us", "CollectionStatistics.observe", "mean", 1e6, "us"),
    ("statistics.to_value_ms", "CollectionStatistics.to_value", "mean", 1e3, "ms"),
    ("serialization.dumps_us", "dumps", "mean", 1e6, "us"),
    ("serialization.loads_us", "loads", "mean", 1e6, "us"),
    ("heap.multi_get_ms", "BlobHeap.multi_get", "mean", 1e3, "ms"),
    ("heap.sync_ms", "BlobHeap.sync", "mean", 1e3, "ms"),
    ("pager.sync_ms", "Pager.sync", "mean", 1e3, "ms"),
    ("segment.append_us", "CollectionSegment.append", "mean", 1e6, "us"),
    ("segment.flush_ms", "MetadataSegmentStore.flush", "mean", 1e3, "ms"),
    ("journal.commit_ms", "CommitJournal.commit", "mean", 1e3, "ms"),
    ("fs.write_us", "write", "mean", 1e6, "us"),
    ("fs.sync_ms", "sync", "mean", 1e3, "ms"),
)

#: calls only some workloads make; their per-call times go to the detail
#: lines rather than the metrics (a layer a workload never calls has no
#: time to report)
DETAIL_TIMES = (
    ("HNSWIndex.add", 1e3, "ms"),
    ("HNSWIndex.search", 1e6, "us"),
    ("HashIndex.insert", 1e6, "us"),
    ("HashIndex.lookup", 1e6, "us"),
    ("Catalog.create_index", 1.0, "s"),
)

#: exact counts reported from replay A, with their units
COUNTS = (
    ("fs.write_bytes.catalog.db", "bytes"),
    ("fs.write_bytes.patches.heap", "bytes"),
    ("fs.write_bytes.metadata.seg", "bytes"),
    ("fs.write_bytes.journal.log", "bytes"),
    ("fs.writes", "count"),
    ("fs.truncates", "count"),
    ("fs.syncs", "count"),
    ("pager.hits", "count"),
    ("pager.misses", "count"),
    ("pager.page_writes", "count"),
    ("pager.evictions", "count"),
    ("heap.reads", "count"),
    ("heap.read_bytes", "bytes"),
    ("heap.write_bytes", "bytes"),
    ("segment.blocks_scanned", "count"),
    ("segment.blocks_skipped", "count"),
    ("journal.commits", "count"),
    ("journal.page_images", "count"),
    ("hnsw.searches", "count"),
    ("hnsw.hops", "count"),
    ("hnsw.candidates", "count"),
    ("indexes.hash_probes", "count"),
    ("optimizer.plans", "count"),
    ("operators.rows_out", "count"),
    ("catalog.rows_fetched", "count"),
    ("serialization.calls", "count"),
    ("statistics.snapshot_bytes", "bytes"),
    ("counts.ops", "count"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run, wl, records, e2e, counts_a: dict, counts_b: dict, units) -> dict:
    """``units`` is the (name, unit) list of the end-to-end metrics."""
    tracer = run.tracer
    own = tracer.self_times()
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    # per-call times over the traced phases (the count replays excluded)
    calls: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    layer_self_ops = dict.fromkeys(LAYERS, 0.0)
    optimizer_self = 0.0
    op_wall = 0.0
    op_self_sum: dict[int, float] = {}
    setup_root = 0.0
    setup_parts = {"Catalog.materialize": 0.0, "Catalog.create_index": 0.0}
    exec_by_class: dict[str, list[float]] = {}
    for i, key in enumerate(tracer.keys):
        phase = tracer.phases[i]
        if phase.startswith("count"):
            continue
        layer, name = tracer.names[key]
        duration = tracer.ends[i] - tracer.starts[i]
        calls.setdefault(name, []).append(duration)
        selfs.setdefault(name, []).append(own[i])
        if layer == "optimizer":
            optimizer_self += own[i]
        if phase == "ops":
            layer_self_ops[layer] += own[i]
            op = tracer.ops[i]
            op_self_sum[op] = op_self_sum.get(op, 0.0) + own[i]
            if name == "op":
                op_wall += duration
            if name == "execute":
                exec_by_class.setdefault(records[op].cls, []).append(duration)
        elif phase == "setup":
            if name == "setup":
                setup_root += duration
            elif name in setup_parts:
                setup_parts[name] += duration

    for metric, call, stat, scale, unit in CALL_TIMES:
        samples = (calls if stat == "mean" else selfs).get(call, [])
        if not samples:
            run.note(f"warning: {metric}: no {call} calls were traced")
        put(metric, scale * statistics.fmean(samples) if samples else 0.0, unit)
    plans = len(calls.get("plan_pipeline", []))
    put("optimizer.plan_us", 1e6 * _ratio(optimizer_self, plans), "us")

    for layer in LAYERS:
        put(f"{layer}.self_share", _ratio(layer_self_ops[layer], op_wall), "ratio")

    materialize = setup_parts["Catalog.materialize"]
    create_index = setup_parts["Catalog.create_index"]
    put("setup.materialize_share", _ratio(materialize, setup_root), "ratio")
    put("setup.create_index_share", _ratio(create_index, setup_root), "ratio")
    put("setup.other_share", _ratio(setup_root - materialize - create_index, setup_root), "ratio")
    run.note(
        f"traced setup {setup_root:.3f} s = materialize {materialize:.3f} s"
        f" + create_index {create_index:.3f} s"
        f" + other {setup_root - materialize - create_index:.3f} s"
    )

    # one op's self times must add up to the op's wall time as the
    # client measured it (the gap is the client's own span bookkeeping)
    errors = [abs(total - records[op].latency) / records[op].latency for op, total in op_self_sum.items()]
    put("trace.self_sum_error_frac", statistics.median(errors), "ratio")
    run.note(f"self-time sum vs op wall time: median error {statistics.median(errors):.2e}, max {max(errors):.2e}")
    put("trace.spans", len(tracer.keys), "count")

    traced = run.end_to_end(wl, records, e2e["space_amp"], subset=True)
    untraced = run.end_to_end(wl, records, e2e["space_amp"], subset=False)
    for name, unit in units:
        put(f"overhead.{name}", traced[name] - untraced[name], unit)

    for name, unit in COUNTS:
        put(name, counts_a.get(name, 0), unit)
    put("pager.hit_rate", _ratio(counts_a["pager.hits"], counts_a["pager.hits"] + counts_a["pager.misses"]), "ratio")
    scanned, skipped = counts_a["segment.blocks_scanned"], counts_a["segment.blocks_skipped"]
    put("segment.blocks_skipped_frac", _ratio(skipped, scanned + skipped), "ratio")
    put(
        "operators.rows_read_per_row_out",
        _ratio(counts_a["catalog.rows_fetched"], counts_a["operators.rows_out"]),
        "ratio",
    )
    last_setup = run.setups[-1][1]
    put("setup.write_bytes", run.CountingFileOps.written(last_setup), "bytes")
    put("setup.fs.writes", last_setup["fs.writes"], "count")
    put("setup.fs.syncs", last_setup["fs.syncs"], "count")

    mismatched = [
        f"{k} {counts_a.get(k)} vs {counts_b.get(k)}"
        for k in sorted(set(counts_a) | set(counts_b))
        if counts_a.get(k) != counts_b.get(k)
    ]
    mismatched += [
        f"setup {k} {snap.get(k)} vs {last_setup.get(k)}"
        for _, snap, _ in run.setups[:-1]
        for k in sorted(set(snap) | set(last_setup))
        if snap.get(k) != last_setup.get(k)
    ]
    put("counts.mismatched", len(mismatched), "count")
    if mismatched:
        run.note("counts that differed between same-seed replays: " + ", ".join(mismatched))

    for call, scale, unit in DETAIL_TIMES:
        samples = calls.get(call)
        if samples:
            run.note(f"{call}: {scale * statistics.fmean(samples):.3f} {unit} per call, n={len(samples)}")
    for cls, samples in sorted(exec_by_class.items()):
        run.note(f"operators.execute_ms.{cls}: {1e3 * statistics.median(samples):.3f} (median, n={len(samples)})")
    for name, unit in units:
        run.note(f"overhead.{name}: traced {traced[name]:.6g} - untraced {untraced[name]:.6g} {unit}")
    return metrics
