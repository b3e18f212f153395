package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"

	gistdb "repro"
	"repro/internal/btree"
)

// workload is one named transaction mix. A run calls setup one or more
// times (each replaces the previous state), restart once, runs ops in
// timed phases, then restartAgain (untraced runs), check and teardown.
type workload interface {
	// setup builds fresh initial state: open, preload and warm up.
	setup() error
	// restart crashes the state setup built and runs the first batch of
	// restarts over the crash image, checking each restarted database. It
	// returns the restart times in seconds and leaves the last one open.
	restart() ([]float64, []string, error)
	// restartAgain runs the second batch of restarts over the same crash
	// image after the timed phase, checking and discarding each restarted
	// database; the open one is left alone.
	restartAgain() ([]float64, []string, error)
	// ops returns one closed-loop transaction function per client.
	ops() []func(*client)
	// check verifies the quiesced state against the clients' model.
	check() ([]string, error)
	// snapshot returns the engine counters used for per-layer deltas.
	snapshot() snapshot
	// detail adds workload-specific measurements to d after check.
	detail(d map[string]metric)
	teardown()
}

// snapshot holds the primary's DB.Metrics() and, when a replica runs,
// ReplicaDB.Metrics().
type snapshot struct {
	primary, replica map[string]int64
}

var workloads = map[string]func(cfg config) workload{
	"read-cached":    newReadCached,
	"write-durable":  newWriteDurable,
	"mixed-spill":    newMixedSpill,
	"replica-follow": newReplicaFollow,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

const (
	indexName   = "kv"
	payloadSize = 64
	// preloadBatch is how many preload inserts share one transaction.
	preloadBatch = 256
)

// payload is the deterministic record stored under key k.
func payload(seed uint64, k int64) []byte {
	b := make([]byte, payloadSize)
	x := uint64(k)*0x9E3779B97F4A7C15 ^ seed
	for i := 0; i < payloadSize; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}

// extensionOps returns the B-tree extension, wrapped for counting when the
// run is traced.
func extensionOps(traced bool) gistdb.Ops {
	if traced {
		return tracedOps{btree.Ops{}}
	}
	return btree.Ops{}
}

// preload inserts keys, in the given order, in batched transactions.
func preload(db *gistdb.DB, ix *gistdb.Index, seed uint64, keys []int64) error {
	for s := 0; s < len(keys); s += preloadBatch {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		for _, k := range keys[s:min(s+preloadBatch, len(keys))] {
			if _, err := ix.Insert(tx, btree.EncodeKey(k), payload(seed, k)); err != nil {
				_ = tx.Abort() // the insert error is what gets reported
				return fmt.Errorf("preload key %d: %w", k, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("preload commit: %w", err)
		}
	}
	return nil
}

// openPreloaded opens a fresh database, creates the index and preloads
// keys.
func openPreloaded(opts gistdb.Options, ops gistdb.Ops, seed uint64, keys []int64) (primary, error) {
	db, err := gistdb.Open(opts)
	if err != nil {
		return primary{}, err
	}
	p := primary{db: db}
	if p.ix, err = db.CreateIndex(indexName, ops); err == nil {
		err = preload(db, p.ix, seed, keys)
	}
	if err != nil {
		p.close()
		return primary{}, err
	}
	return p, nil
}

// shuffled puts keys in a seeded random order, in place.
func shuffled(seed uint64, keys []int64) []int64 {
	r := rand.New(rand.NewPCG(seed, 0xB0A7))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// entry is one live index entry.
type entry struct {
	key int64
	rid gistdb.RID
}

func scanResults(hits []gistdb.SearchResult) []entry {
	out := make([]entry, len(hits))
	for i, h := range hits {
		out[i] = entry{btree.DecodeKey(h.Key), h.RID}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].key != out[b].key {
			return out[a].key < out[b].key
		}
		return ridLess(out[a].rid, out[b].rid)
	})
	return out
}

func ridLess(a, b gistdb.RID) bool {
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	return a.Slot < b.Slot
}

// scanAll reads every live entry of ix in one ReadCommitted transaction.
func scanAll(db *gistdb.DB, ix *gistdb.Index) ([]entry, error) {
	tx, err := db.Begin()
	if err != nil {
		return nil, err
	}
	hits, err := ix.Search(tx, btree.EncodeRange(-1<<62, 1<<62), gistdb.ReadCommitted)
	if err != nil {
		_ = tx.Abort() // the search error is what gets reported
		return nil, err
	}
	return scanResults(hits), tx.Commit()
}

// preloaded returns the keys 0, step, 2*step, ... of an n-key preload, in
// order.
func preloaded(n, step int64) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) * step
	}
	return keys
}

// diffEntries describes how got differs from want, or returns "".
func diffEntries(what string, got, want []entry) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d live entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s: entry %d is key %d rid %v, want key %d rid %v",
				what, i, got[i].key, got[i].rid, want[i].key, want[i].rid)
		}
	}
	return ""
}

// diffKeys is diffEntries on keys alone, for checks against a model that
// does not track RIDs.
func diffKeys(what string, got []entry, want []int64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d live entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].key != want[i] {
			return fmt.Sprintf("%s: entry %d is key %d, want %d", what, i, got[i].key, want[i])
		}
	}
	return ""
}

// primary bundles an open primary database and its index.
type primary struct {
	db *gistdb.DB
	ix *gistdb.Index
}

func (p *primary) close() {
	if p.db != nil {
		_ = p.db.Close() // discarding this state; nothing reads it again
		p.db, p.ix = nil, nil
	}
}

// Restart repetitions. A run restarts in two batches over the same crash
// image, one before the timed phase and one after it, so that restart_s
// samples the host at two moments of the run. Each batch takes at least
// minRestarts, then more while its total is under restartBudget (small
// images restart in tens of milliseconds, so they need more samples for a
// steady median), at most maxRestarts.
const (
	minRestarts   = 5
	maxRestarts   = 15
	restartBudget = 1.0 // seconds
)

// restartBatch runs timed restarts through one until a batch is complete.
// one restarts once over the crash image, checks the restarted database and
// returns the restart's seconds and any violation; last tells it whether
// this is the batch's final restart.
func restartBatch(one func(last bool) (float64, string, error)) ([]float64, []string, error) {
	var times []float64
	var viol []string
	for {
		last := len(times)+1 >= minRestarts && !wantMore(times)
		t, v, err := one(last)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		if v != "" {
			viol = append(viol, fmt.Sprintf("restart %d: %s", len(times)-1, v))
		}
		if last {
			return times, viol, nil
		}
	}
}

// wantMore reports whether a batch that has taken times should take
// another restart after the next one.
func wantMore(times []float64) bool {
	var sum float64
	for _, t := range times {
		sum += t
	}
	// Estimate the next restart by the mean so far (the first by nothing).
	next := 0.0
	if len(times) > 0 {
		next = sum / float64(len(times))
	}
	return len(times)+2 <= maxRestarts && sum+next < restartBudget
}

// memImage is the crash image of an in-memory database: the crashed DB,
// which SimulateCrash copies afresh on every restart.
type memImage struct {
	crashed *gistdb.DB
	ops     gistdb.Ops
	verify  func(*primary) (string, error)
}

// restart restarts once over the image, reopens the index and checks the
// restarted database.
func (m *memImage) restart() (*primary, float64, string, error) {
	runtime.GC() // each restart starts from the same collector state
	t := nowSeconds()
	db, err := m.crashed.SimulateCrash()
	if err != nil {
		return nil, 0, "", fmt.Errorf("restart: %w", err)
	}
	ix, err := db.OpenIndex(indexName, m.ops)
	if err != nil {
		_ = db.Close() // the open error is what gets reported
		return nil, 0, "", fmt.Errorf("restart: open index: %w", err)
	}
	took := nowSeconds() - t
	p := &primary{db, ix}
	v, err := m.verify(p)
	if err != nil {
		p.close()
		return nil, 0, "", fmt.Errorf("restart check: %w", err)
	}
	return p, took, v, nil
}

// start crashes p.db and runs the first batch of restarts over its image,
// checking each restarted database with verify. The last restarted
// database replaces p; the others are closed.
func (m *memImage) start(p *primary, ops gistdb.Ops, verify func(*primary) (string, error)) ([]float64, []string, error) {
	*m = memImage{crashed: p.db, ops: ops, verify: verify}
	return restartBatch(func(last bool) (float64, string, error) {
		next, t, v, err := m.restart()
		if err != nil {
			return 0, "", err
		}
		if last {
			*p = *next
		} else {
			next.close()
		}
		return t, v, nil
	})
}

// secondBatch runs the second batch of restarts over the same image,
// closing each restarted database.
func (m *memImage) secondBatch() ([]float64, []string, error) {
	return restartBatch(func(bool) (float64, string, error) {
		next, t, v, err := m.restart()
		if err != nil {
			return 0, "", err
		}
		next.close()
		return t, v, nil
	})
}

// pointTxn is a ReadCommitted point lookup plus record fetch on a primary,
// checked against the preloaded record of key k.
func pointTxn(c *client, p *primary, seed uint64, k int64) error {
	tx, root, err := c.begin(p.db)
	if err != nil {
		return err
	}
	id := tx.ID()
	s := c.open(spanSearch)
	hits, err := p.ix.Search(tx, btree.EncodeRange(k, k), gistdb.ReadCommitted)
	c.close(s, id)
	if err == nil {
		if len(hits) != 1 || btree.DecodeKey(hits[0].Key) != k {
			c.violate("point lookup of %d returned %d hits", k, len(hits))
		} else {
			s = c.open(spanFetch)
			var rec []byte
			rec, err = p.ix.Fetch(hits[0].RID)
			c.close(s, id)
			if err == nil && !bytes.Equal(rec, payload(seed, k)) {
				c.violate("record of key %d differs from the preload", k)
			}
		}
	}
	return c.end(tx, root, err)
}

// begin starts a primary transaction inside a root span.
func (c *client) begin(db *gistdb.DB) (*gistdb.Tx, tspan, error) {
	root := c.openTxn()
	s := c.open(spanBegin)
	tx, err := db.Begin()
	if err != nil {
		c.close(s, 0)
		c.closeTxn(root, 0)
		return nil, root, err
	}
	c.close(s, tx.ID())
	return tx, root, nil
}

// end commits tx when err is nil, aborts it otherwise, and closes the root
// span. It returns the transaction's outcome.
func (c *client) end(tx *gistdb.Tx, root tspan, err error) error {
	id := tx.ID()
	if err == nil {
		s := c.open(spanCommit)
		err = tx.Commit()
		c.close(s, id)
	}
	if err != nil {
		// A deadlock victim may already be rolled back; the statement's
		// error is the outcome that counts.
		_ = tx.Abort()
	}
	c.closeTxn(root, id)
	return err
}

// insertTxn inserts key k with its payload in one transaction and returns
// the new RID.
func insertTxn(c *client, p *primary, seed uint64, k int64) (gistdb.RID, error) {
	tx, root, err := c.begin(p.db)
	if err != nil {
		return gistdb.RID{}, err
	}
	s := c.open(spanInsert)
	rid, err := p.ix.Insert(tx, btree.EncodeKey(k), payload(seed, k))
	c.close(s, tx.ID())
	return rid, c.end(tx, root, err)
}

// deleteTxn deletes the entry (k, rid) in one transaction.
func deleteTxn(c *client, p *primary, k int64, rid gistdb.RID) error {
	tx, root, err := c.begin(p.db)
	if err != nil {
		return err
	}
	s := c.open(spanDelete)
	err = p.ix.Delete(tx, btree.EncodeKey(k), rid)
	c.close(s, tx.ID())
	return c.end(tx, root, err)
}

// ownKeys is one writing client's committed model: the keys it inserted
// and has not deleted, with O(1) random choice for deletes.
type ownKeys struct {
	rid  map[int64]gistdb.RID
	keys []int64
	pos  map[int64]int
	next int64 // next fresh key for clients that never reuse keys
}

func newOwnKeys(first int64) *ownKeys {
	return &ownKeys{rid: map[int64]gistdb.RID{}, pos: map[int64]int{}, next: first}
}

func (o *ownKeys) add(k int64, rid gistdb.RID) {
	o.rid[k] = rid
	o.pos[k] = len(o.keys)
	o.keys = append(o.keys, k)
}

func (o *ownKeys) remove(k int64) {
	i := o.pos[k]
	last := o.keys[len(o.keys)-1]
	o.keys[i] = last
	o.pos[last] = i
	o.keys = o.keys[:len(o.keys)-1]
	delete(o.pos, k)
	delete(o.rid, k)
}

// freshWrite is the write mix of write-durable and replica-follow: 75%
// inserts of a fresh key, 25% deletes of a key this client inserted
// earlier. It reports whether a transaction committed.
func freshWrite(c *client, p *primary, seed uint64, own *ownKeys, stride int64) bool {
	before := c.committed
	if len(own.keys) > 0 && c.rng.IntN(4) == 0 {
		k := own.keys[c.rng.IntN(len(own.keys))]
		rid := own.rid[k]
		c.txn(classWrite, func() error { return deleteTxn(c, p, k, rid) })
		if c.committed > before {
			own.remove(k)
		}
	} else {
		k := own.next
		var rid gistdb.RID
		c.txn(classWrite, func() error {
			var err error
			rid, err = insertTxn(c, p, seed, k)
			return err
		})
		if c.committed > before {
			own.add(k, rid)
			own.next += stride
		}
	}
	return c.committed > before
}
