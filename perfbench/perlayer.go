package main

import (
	"runtime"
)

// Tree-operation span kinds: the calls whose self time is gist's.
var treeKinds = []int{spanSearch, spanInsert, spanDelete, spanRSearch}

// delta is the change of a per-instance counter across the traced phase,
// summed over the primary and (replica-follow) the replica.
func delta(a, b snapshot, key string) int64 {
	return b.primary[key] - a.primary[key] + b.replica[key] - a.replica[key]
}

// deltaP is the change of a counter on the primary alone. latch.* and
// gist.* registries are process-global, so on replica-follow they include
// the replica's work: they are per-process, not per-instance, figures.
func deltaP(a, b snapshot, key string) int64 { return b.primary[key] - a.primary[key] }

// spanTotals sums the clients' span time (ns) and span count per kind.
func spanTotals(traces []*clientTrace) (sum, cnt [nSpanKinds]int64) {
	for _, t := range traces {
		for k := range sum {
			sum[k] += t.sum[k]
			cnt[k] += t.cnt[k]
		}
	}
	return sum, cnt
}

// perLayer fills res.Metrics with the per-layer metrics of a traced run
// and res.Detail with the rest of the layer breakdown.
//
// a is the untraced phase, b the traced phase (its counter snapshots are
// before and after), c the single-client extension phases, recovered the
// counters of the restarted database.
func perLayer(res *runResult, a, b *phaseResult, c []*phaseResult, before, after, recovered snapshot, m0, m1 *runtime.MemStats) {
	m, d := res.Metrics, res.Detail
	txns := b.committed
	per := func(v int64) float64 { return ratio(v, txns) }
	perK := func(v int64) float64 { return 1000 * ratio(v, txns) }
	count := func(name string, v float64) { m[name] = metric{Value: v, Unit: "count"} }

	sum, cnt := spanTotals(b.traces)
	meanUs := func(k int) float64 { return float64(sum[k]) / 1e3 / float64(max(cnt[k], 1)) }

	var failed int64
	for _, n := range b.fails {
		failed += n
	}
	m["failed_frac"] = metric{Value: ratio(failed, b.tries), Unit: "ratio"}
	count("txn.retries_per_ktxn", perK(b.tries-b.attempted))
	m["txn.begin_us"] = metric{Value: meanUs(spanBegin), Unit: "us", N: int(cnt[spanBegin])}
	m["txn.commit_us"] = metric{Value: meanUs(spanCommit), Unit: "us", N: int(cnt[spanCommit])}

	// Extension phase: every extension call is attributed to the span kind
	// open when it was made.
	var traces []*clientTrace
	for _, p := range c {
		traces = append(traces, p.traces...)
	}
	csum, ccnt := spanTotals(traces)
	// A span kind's self time is its time minus its extension calls and
	// minus what counting those calls added.
	selfNs := func(k int) float64 { return float64(csum[k]) - ext.nsIn(k) - ext.overheadIn(k) }
	var treeSelf, treeExt float64
	var treeN int64
	for _, k := range treeKinds {
		treeSelf += selfNs(k)
		treeExt += ext.nsIn(k)
		treeN += ccnt[k]
	}
	m["gist.self_us_per_op"] = metric{Value: treeSelf / 1e3 / float64(max(treeN, 1)), Unit: "us", N: int(treeN)}
	m["ext.us_per_op"] = metric{Value: treeExt / 1e3 / float64(max(treeN, 1)), Unit: "us", N: int(treeN)}
	calls := func(method int, kinds ...int) (n, ops int64) {
		for _, k := range kinds {
			n += ext.callsIn(method, k)
			ops += ccnt[k]
		}
		return n, ops
	}
	n, searches := calls(extConsistent, spanSearch, spanRSearch)
	count("ext.consistent_calls_per_search", ratio(n, searches))
	n, writes := calls(extUnion, spanInsert, spanDelete)
	count("ext.union_calls_per_write", ratio(n, writes))
	n, _ = calls(extPenalty, spanInsert, spanDelete)
	count("ext.penalty_calls_per_write", ratio(n, writes))
	if searches > 0 {
		ns := ext.nsIn(spanSearch) + ext.nsIn(spanRSearch)
		d["ext.us_per_search"] = metric{Value: ns / 1e3 / float64(searches), Unit: "us", N: int(searches)}
	}
	for _, k := range treeKinds {
		if ccnt[k] > 0 {
			d[spanNames[k]+"_self_us"] = metric{Value: selfNs(k) / 1e3 / float64(ccnt[k]),
				Unit: "us", N: int(ccnt[k]), Note: "span minus extension calls, single-client phase"}
		}
	}
	d["ext.wrapper_ns_per_call"] = metric{Value: ext.perCallNs, Unit: "ns", Note: "counting overhead, subtracted from span self time"}
	for m, ns := range ext.costNs {
		if ns > 0 {
			d["ext."+extNames[m]+"_ns"] = metric{Value: ns, Unit: "ns", N: len(ext.samples[m]),
				Note: "replayed price of one call"}
		}
	}

	count("go.allocs_per_txn", per(int64(m1.Mallocs-m0.Mallocs)))
	m["go.alloc_bytes_per_txn"] = metric{Value: per(int64(m1.TotalAlloc - m0.TotalAlloc)), Unit: "B"}

	count("lock.acq_per_txn", per(delta(before, after, "lock.acquisitions")))
	count("lock.waits_per_txn", per(delta(before, after, "lock.waits")))
	count("lock.deadlocks_per_ktxn", perK(delta(before, after, "lock.deadlocks")))
	d["lock.wait_us_per_txn"] = metric{Value: per(delta(before, after, "lock.wait_nanos")) / 1e3, Unit: "us"}

	checks := delta(before, after, "predicate.checks")
	count("predicate.checks_per_txn", per(checks))
	count("predicate.examined_per_check", ratio(delta(before, after, "predicate.preds_examined"), checks))

	optReads, optRestarts := deltaP(before, after, "latch.opt_reads"), deltaP(before, after, "latch.opt_restarts")
	validate := 1.0 // no optimistic visit, so none wasted
	if optReads+optRestarts > 0 {
		validate = ratio(optReads, optReads+optRestarts)
	}
	m["latch.opt_validate_ratio"] = metric{Value: validate, Unit: "ratio", Note: "per-process"}
	m["latch.opt_fallbacks_per_txn"] = metric{Value: per(deltaP(before, after, "latch.opt_fallbacks")), Unit: "count", Note: "per-process"}
	d["latch.x_wait_p99_us"] = metric{Value: float64(after.primary["latch.x_wait_p99"]) / 1e3, Unit: "us",
		Note: "per-process histogram since start"}

	hits, misses := delta(before, after, "buffer.hits"), delta(before, after, "buffer.misses")
	count("buffer.fetch_per_txn", per(hits+misses))
	m["buffer.hit_ratio"] = metric{Value: ratio(hits, hits+misses), Unit: "ratio"}
	count("buffer.evictions_per_txn", per(delta(before, after, "buffer.evictions")))
	count("storage.reads_per_txn", per(delta(before, after, "disk.reads")))
	count("storage.writes_per_txn", per(delta(before, after, "disk.writes")))
	if after.replica != nil || (len(b.lat[classPoint]) == 0 && len(b.lat[classRange]) == 0) {
		// Every primary transaction is a write here.
		w := int64(len(b.lat[classWrite]))
		d["buffer.fetch_per_write"] = metric{Value: ratio(deltaP(before, after, "buffer.hits")+deltaP(before, after, "buffer.misses"), w),
			Unit: "count", N: int(w)}
	}
	for _, h := range []string{"buffer.steal", "buffer.load", "txn.commit_flush", "wal.fsync"} {
		for _, q := range []string{"p50", "p99"} {
			d[h+"_"+q+"_us"] = metric{Value: float64(after.primary[h+"_"+q]) / 1e3, Unit: "us",
				Note: "primary histogram since open"}
		}
	}

	commits := deltaP(before, after, "txn.commits")
	count("wal.bytes_per_txn", per(deltaP(before, after, "wal.appended_bytes")))
	count("wal.commits_per_fsync", ratio(commits, deltaP(before, after, "wal.fsync_count")))
	count("wal.stage_stalls_per_ktxn", perK(deltaP(before, after, "wal.stage_stalls")))

	rec := recovered.primary
	m["recovery.scan_ms"] = metric{Value: float64(rec["recovery.scan_nanos"]) / 1e6, Unit: "ms"}
	m["recovery.redo_ms"] = metric{Value: float64(rec["recovery.redo_nanos"]) / 1e6, Unit: "ms"}
	d["recovery.undo_ms"] = metric{Value: float64(rec["recovery.undo_nanos"]) / 1e6, Unit: "ms"}
	count("recovery.redone", float64(rec["recovery.redone"]))
	count("recovery.undone", float64(rec["recovery.undone"]))

	wrote := int64(len(b.lat[classWrite]))
	count("repl.ship_bytes_per_write", ratio(deltaP(before, after, "repl.ship_bytes"), wrote))
	count("repl.records_per_apply_batch", ratio(after.replica["repl.apply_records"]-before.replica["repl.apply_records"],
		after.replica["repl.apply_batches"]-before.replica["repl.apply_batches"]))
	if after.replica != nil {
		d["repl.apply_lag_p99_lsn"] = metric{Value: float64(after.replica["repl.apply_lag_p99"]), Unit: "lsn",
			Note: "replica histogram since open"}
	}

	overhead := 0.0
	tputA := float64(a.committed) / a.elapsed.Seconds()
	tputB := float64(b.committed) / b.elapsed.Seconds()
	if tputA > 0 {
		overhead = 1 - tputB/tputA
	}
	m["trace.overhead_frac"] = metric{Value: overhead, Unit: "ratio", Note: "1 - traced/untraced tput_txn_s"}
	d["tput_txn_s.untraced"] = metric{Value: tputA, Unit: "1/s", N: int(a.committed)}
	d["tput_txn_s.traced"] = metric{Value: tputB, Unit: "1/s", N: int(b.committed)}

	// Span means and the root's self time (the benchmark's own work
	// between calls: op choice and result checks).
	var children int64
	for k := spanBegin; k < nSpanKinds; k++ {
		if cnt[k] > 0 {
			d["span."+spanNames[k]+"_us"] = metric{Value: meanUs(k), Unit: "us", N: int(cnt[k])}
		}
		if k != spanVisible {
			children += sum[k]
		}
	}
	if cnt[spanTxn] > 0 {
		d["span.txn_us"] = metric{Value: meanUs(spanTxn), Unit: "us", N: int(cnt[spanTxn])}
		d["span.txn_self_us"] = metric{Value: float64(sum[spanTxn]-children) / 1e3 / float64(cnt[spanTxn]), Unit: "us",
			N: int(cnt[spanTxn]), Note: "root span minus its children"}
	}
}
