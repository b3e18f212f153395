package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	gistdb "repro"
	"repro/internal/btree"
)

// Span kinds: one per facade call the benchmark makes. A span's layer is
// the layer the call enters: Begin and Commit enter txn, Search, Insert and
// Delete enter gist (Insert and Delete also the heap record), Fetch enters
// heap, and WaitApplied enters repl.
const (
	spanNone    = iota
	spanTxn     // root: Begin .. Commit (or replica Close) return
	spanBegin   // DB.Begin / ReplicaDB.Begin
	spanSearch  // Index.Search
	spanInsert  // Index.Insert
	spanDelete  // Index.Delete
	spanFetch   // Index.Fetch
	spanCommit  // Tx.Commit / ReplicaTx.Close
	spanRSearch // ReplicaIndex.Search
	spanVisible // ReplicaDB.WaitApplied after a primary commit
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"none", "txn", "txn.begin", "gist.search", "gist.insert",
	"gist.delete", "heap.fetch", "txn.commit", "repl.replica_search", "repl.wait_applied"}

// maxSpansKept caps the spans a client keeps for the span file (about
// 2 MB of CSV per client); the per-kind sums keep counting past it.
const maxSpansKept = 1 << 15

type span struct {
	kind       uint8
	parent     int32 // index of the parent span in the same client's list; -1 for a root
	txn        uint64
	start, end int64 // ns since the phase started
}

// clientTrace is one client's span log. Only its own goroutine writes it.
type clientTrace struct {
	epoch time.Time
	spans []span
	sum   [nSpanKinds]int64 // ns per kind
	cnt   [nSpanKinds]int64
}

func newClientTrace(epoch time.Time) *clientTrace {
	return &clientTrace{epoch: epoch, spans: make([]span, 0, 4096)}
}

func (t *clientTrace) now() int64 { return int64(time.Since(t.epoch)) }

func (t *clientTrace) add(kind int, parent int32, txn uint64, start, end int64) int32 {
	t.sum[kind] += end - start
	t.cnt[kind]++
	if len(t.spans) >= maxSpansKept {
		return -1
	}
	t.spans = append(t.spans, span{uint8(kind), parent, txn, start, end})
	return int32(len(t.spans) - 1)
}

// tspan is an open span; the zero value belongs to an untraced client.
type tspan struct {
	kind  int
	start int64
}

// open starts a span and, during the extension phase, attributes extension
// calls to its kind. Cheap when the client is untraced.
func (c *client) open(kind int) tspan {
	if c.tr == nil {
		return tspan{}
	}
	if kind != spanTxn && ext.armed.Load() {
		ext.kind.Store(int32(kind))
	}
	return tspan{kind, c.tr.now()}
}

// close ends a child span of the client's current transaction.
func (c *client) close(s tspan, txn uint64) {
	if c.tr == nil {
		return
	}
	if ext.armed.Load() {
		ext.kind.Store(spanNone)
	}
	c.tr.add(s.kind, c.root, txn, s.start, c.tr.now())
}

// openTxn starts a transaction's root span, reserving its slot so the
// children can name it as their parent.
func (c *client) openTxn() tspan {
	if c.tr == nil {
		return tspan{}
	}
	s := tspan{spanTxn, c.tr.now()}
	c.root = -1
	if len(c.tr.spans) < maxSpansKept {
		c.tr.spans = append(c.tr.spans, span{kind: spanTxn, parent: -1, start: s.start, end: s.start})
		c.root = int32(len(c.tr.spans) - 1)
	}
	return s
}

// closeTxn ends the root span opened by openTxn.
func (c *client) closeTxn(s tspan, txn uint64) {
	if c.tr == nil {
		return
	}
	end := c.tr.now()
	c.tr.sum[spanTxn] += end - s.start
	c.tr.cnt[spanTxn]++
	if c.root >= 0 {
		c.tr.spans[c.root].txn = txn
		c.tr.spans[c.root].end = end
	}
	c.root = -1
}

// writeSpans writes the kept spans of a traced phase as CSV.
func writeSpans(path string, traces []*clientTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client,index,name,parent,txn,start_ns,end_ns")
	for ci, t := range traces {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", ci, i, spanNames[s.kind], s.parent, s.txn, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Extension methods counted by tracedOps.
const (
	extConsistent = iota
	extUnion
	extPenalty
	extPickSplit
	extKeyQuery
	nExtMethods
)

var extNames = [nExtMethods]string{"consistent", "union", "penalty", "picksplit", "keyquery"}

// Extension calls take nanoseconds, less than a clock read, so they are
// not timed where they happen. The wrapper counts every call and keeps a
// copy of the arguments of one call in extSampleEvery (of every PickSplit,
// which is rare); after the phase, cost replays the samples in a tight
// loop to price each method. An extension's time inside a span kind is
// then its calls there times that price.
const (
	extSampleEvery = 64
	extMaxSamples  = 1 << 14 // per method
)

type extSample struct {
	a, b  []byte
	preds [][]byte
}

// extStats accumulates extension calls by the span kind that was open when
// they were made. It is armed only while a single client runs, so the open
// span is the one that caused every call.
type extStats struct {
	armed atomic.Bool
	kind  atomic.Int32
	calls [nExtMethods][nSpanKinds]atomic.Int64

	mu      sync.Mutex
	samples [nExtMethods][]extSample

	costNs    [nExtMethods]float64 // replayed price of one call, by method
	perCallNs float64              // what counting adds to each call
}

var ext extStats

// count records one call of method m made while armed.
func (e *extStats) count(m int, a, b []byte, preds [][]byte) {
	n := e.calls[m][e.kind.Load()].Add(1)
	if n%extSampleEvery != 0 && m != extPickSplit {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.samples[m]) < extMaxSamples {
		s := extSample{a: bytes.Clone(a), b: bytes.Clone(b)}
		for _, p := range preds {
			s.preds = append(s.preds, bytes.Clone(p))
		}
		e.samples[m] = append(e.samples[m], s)
	}
}

// callsIn is the number of calls of method m made inside spans of kind.
func (e *extStats) callsIn(m, kind int) int64 { return e.calls[m][kind].Load() }

// nsIn is the replayed extension time inside spans of kind.
func (e *extStats) nsIn(kind int) float64 {
	var ns float64
	for m := range e.calls {
		ns += float64(e.callsIn(m, kind)) * e.costNs[m]
	}
	return ns
}

// overheadIn is what counting added to spans of kind.
func (e *extStats) overheadIn(kind int) float64 {
	var n int64
	for m := range e.calls {
		n += e.callsIn(m, kind)
	}
	return float64(n) * e.perCallNs
}

// bestPerCall runs f (which makes calls calls) a few times and returns the
// fastest time per call.
func bestPerCall(calls int, f func()) float64 {
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		s := time.Now()
		f()
		best = math.Min(best, float64(time.Since(s))/float64(calls))
	}
	return best
}

// calibrate measures what the armed wrapper's counting adds to a call. It
// leaves the counters and samples empty and the wrapper disarmed.
func (e *extStats) calibrate() {
	var raw, wrapped gistdb.Ops = btree.Ops{}, tracedOps{btree.Ops{}}
	pred, query := btree.EncodeRange(10, 20), btree.EncodeRange(15, 15)
	const calls = 1 << 16
	loop := func(o gistdb.Ops) func() {
		return func() {
			for i := 0; i < calls; i++ {
				if o.Consistent(pred, query) {
					calibSink++
				}
			}
		}
	}
	e.armed.Store(true)
	e.perCallNs = math.Max(bestPerCall(calls, loop(wrapped))-bestPerCall(calls, loop(raw)), 0)
	e.armed.Store(false)
	for m := range e.calls {
		for k := range e.calls[m] {
			e.calls[m][k].Store(0)
		}
		e.samples[m] = nil
	}
}

// cost prices each method by replaying its samples on the unwrapped
// extension, at least minReplay calls per round.
func (e *extStats) cost(inner gistdb.Ops) {
	const minReplay = 1 << 15
	for m, samples := range e.samples {
		if len(samples) == 0 {
			continue
		}
		rounds := (minReplay + len(samples) - 1) / len(samples)
		e.costNs[m] = bestPerCall(rounds*len(samples), func() {
			for r := 0; r < rounds; r++ {
				for _, s := range samples {
					replay(inner, m, s)
				}
			}
		})
	}
}

func replay(o gistdb.Ops, m int, s extSample) {
	switch m {
	case extConsistent:
		if o.Consistent(s.a, s.b) {
			calibSink++
		}
	case extUnion:
		calibSink += len(o.Union(s.a, s.b))
	case extPenalty:
		if o.Penalty(s.a, s.b) > 0 {
			calibSink++
		}
	case extPickSplit:
		calibSink += len(o.PickSplit(s.preds))
	case extKeyQuery:
		calibSink += len(o.KeyQuery(s.a))
	}
}

// calibSink keeps the measured calls from being optimized away.
var calibSink int

// tracedOps wraps the extension the workloads index with. Traced runs
// install it; untraced runs use the extension directly.
type tracedOps struct{ inner gistdb.Ops }

func (o tracedOps) Consistent(pred, query []byte) bool {
	if ext.armed.Load() {
		ext.count(extConsistent, pred, query, nil)
	}
	return o.inner.Consistent(pred, query)
}

func (o tracedOps) Union(a, b []byte) []byte {
	if ext.armed.Load() {
		ext.count(extUnion, a, b, nil)
	}
	return o.inner.Union(a, b)
}

func (o tracedOps) Penalty(bp, key []byte) float64 {
	if ext.armed.Load() {
		ext.count(extPenalty, bp, key, nil)
	}
	return o.inner.Penalty(bp, key)
}

func (o tracedOps) PickSplit(preds [][]byte) []int {
	if ext.armed.Load() {
		ext.count(extPickSplit, nil, nil, preds)
	}
	return o.inner.PickSplit(preds)
}

func (o tracedOps) KeyQuery(key []byte) []byte {
	if ext.armed.Load() {
		ext.count(extKeyQuery, key, nil, nil)
	}
	return o.inner.KeyQuery(key)
}
