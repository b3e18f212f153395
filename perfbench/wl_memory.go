package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	gistdb "repro"
	"repro/internal/btree"
)

func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// readCached: the CPU-bound read path. An in-memory DB whose pool holds the
// whole tree and heap; 90% ReadCommitted point lookups (plus the record
// fetch) and 10% RepeatableRead ranges of 16 keys over uniform keys. It
// loads descent, entry decode and Consistent, optimistic validation, record
// locks and predicate attach, and does almost no WAL, buffer-miss or fsync
// work.
type readCached struct {
	cfg    config
	n      int64
	pool   int
	p      primary
	extOps gistdb.Ops
	img    memImage
}

func newReadCached(cfg config) workload {
	// 2048 frames hold the ~1.4k tree and heap pages of 100k keys.
	return &readCached{cfg: cfg, n: 100_000, pool: 2048, extOps: extensionOps(cfg.trace)}
}

func (w *readCached) setup() error {
	w.p.close()
	var err error
	w.p, err = openPreloaded(gistdb.Options{PoolPages: w.pool}, w.extOps, w.cfg.seed, shuffled(w.cfg.seed, preloaded(w.n, 1)))
	if err != nil {
		return err
	}
	return w.warm()
}

// warm reads every entry and record, so the timed phase starts with the
// whole working set in the pool, and checks them against the preload.
func (w *readCached) warm() error {
	got, err := scanAll(w.p.db, w.p.ix)
	if err != nil {
		return err
	}
	if int64(len(got)) != w.n {
		return fmt.Errorf("warm-up: %d entries, want %d", len(got), w.n)
	}
	for i, e := range got {
		if e.key != int64(i) {
			return fmt.Errorf("warm-up: entry %d has key %d", i, e.key)
		}
		if _, err := w.p.ix.Fetch(e.rid); err != nil {
			return fmt.Errorf("warm-up fetch: %w", err)
		}
	}
	return nil
}

func (w *readCached) restart() ([]float64, []string, error) {
	want := preloaded(w.n, 1)
	times, viol, err := w.img.start(&w.p, w.extOps, func(p *primary) (string, error) {
		got, err := scanAll(p.db, p.ix)
		if err != nil {
			return "", err
		}
		return diffKeys("after restart", got, want), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return times, viol, w.warm()
}

func (w *readCached) restartAgain() ([]float64, []string, error) { return w.img.secondBatch() }

func (w *readCached) ops() []func(*client) {
	op := func(c *client) {
		if c.rng.IntN(10) == 0 {
			lo := c.rng.Int64N(w.n - 15)
			c.txn(classRange, func() error { return rangeTxn(c, &w.p, lo, lo+15, 1, nil) })
			return
		}
		k := c.rng.Int64N(w.n)
		c.txn(classPoint, func() error { return pointTxn(c, &w.p, w.cfg.seed, k) })
	}
	return []func(*client){op, op}
}

// rangeTxn is a RepeatableRead range over [lo,hi]. Every key in the range
// that is a multiple of step is preloaded and must be present; own, when
// set, is the calling client's model of the keys it toggles, which the
// result must agree with inside the range.
func rangeTxn(c *client, p *primary, lo, hi, step int64, own *toggleKeys) error {
	tx, root, err := c.begin(p.db)
	if err != nil {
		return err
	}
	s := c.open(spanSearch)
	hits, err := p.ix.Search(tx, btree.EncodeRange(lo, hi), gistdb.RepeatableRead)
	c.close(s, tx.ID())
	if err == nil {
		pre, mine := 0, 0
		for _, h := range hits {
			k := btree.DecodeKey(h.Key)
			switch {
			case k < lo || k > hi:
				c.violate("range [%d,%d] returned key %d", lo, hi, k)
			case k%step == 0:
				pre++
			case own != nil && own.owns(k):
				mine++
				if _, ok := own.rid[k]; !ok {
					c.violate("range [%d,%d] returned key %d this client deleted", lo, hi, k)
				}
			}
		}
		if want := int((hi-lo)/step + 1); pre != want {
			c.violate("range [%d,%d] returned %d preloaded keys, want %d", lo, hi, pre, want)
		}
		if own != nil {
			if want := own.countIn(lo, hi); mine != want {
				c.violate("range [%d,%d] returned %d of this client's keys, want %d", lo, hi, mine, want)
			}
		}
	}
	return c.end(tx, root, err)
}

func (w *readCached) check() ([]string, error) {
	got, err := scanAll(w.p.db, w.p.ix)
	if err != nil {
		return nil, err
	}
	if d := diffKeys("after the timed phase", got, preloaded(w.n, 1)); d != "" {
		return []string{d}, nil
	}
	return nil, nil
}

func (w *readCached) snapshot() snapshot         { return snapshot{primary: w.p.db.Metrics()} }
func (w *readCached) detail(d map[string]metric) {}
func (w *readCached) teardown()                  { w.p.close() }

// mixedSpill: readers beside writers on hot leaves, with data far larger
// than the pool. 50k preloaded keys (multiples of 4; a 257-page tree) over
// a 64-page pool; clients pick Zipf-skewed items: 60% ReadCommitted point
// lookups, 15% RepeatableRead ranges over 16 preloaded keys, 25% writes
// that toggle a key next to the item (insert if absent, delete if
// present). It loads
// misses, evictions and steals with WAL-before-steal flushes, optimistic
// validation restarts, lock waits, deadlock victims and predicate
// conflicts. Its crash image holds seeded loser transactions.
type mixedSpill struct {
	cfg    config
	n      int64
	pool   int
	p      primary
	extOps gistdb.Ops
	img    memImage
	own    [clientsPerRun]*toggleKeys
}

func newMixedSpill(cfg config) workload {
	w := &mixedSpill{cfg: cfg, n: 50_000, pool: 64, extOps: extensionOps(cfg.trace)}
	for i := range w.own {
		w.own[i] = &toggleKeys{rid: map[int64]gistdb.RID{}, offset: int64(1 + i)}
	}
	return w
}

// Loser transactions left open in the crash image: each inserts
// loserInserts fresh keys and deletes loserDeletes preloaded ones.
const (
	losers       = 4
	loserInserts = 16
	loserDeletes = 4
)

func (w *mixedSpill) setup() error {
	w.p.close()
	var err error
	w.p, err = openPreloaded(gistdb.Options{PoolPages: w.pool}, w.extOps, w.cfg.seed, shuffled(w.cfg.seed, preloaded(w.n, 4)))
	return err
}

// restart leaves seeded losers open, forces their log records durable, and
// crashes. Every restart must roll them back: all preloaded keys present,
// no loser insert present.
func (w *mixedSpill) restart() ([]float64, []string, error) {
	r := rand.New(rand.NewPCG(w.cfg.seed, 0x1053))
	tx0, err := w.p.db.Begin()
	if err != nil {
		return nil, nil, err
	}
	// Look the victims' RIDs up in a committed scan.
	all, err := w.p.ix.Search(tx0, btree.EncodeRange(0, 4*w.n), gistdb.ReadCommitted)
	if err != nil {
		return nil, nil, err
	}
	if err := tx0.Commit(); err != nil {
		return nil, nil, err
	}
	entries := scanResults(all)
	victims := r.Perm(len(entries))
	// Loser keys are distinct: an insert of a key another open
	// transaction inserted waits for that transaction to end (§10.3), and
	// these never end.
	fresh := r.Perm(int(w.n))
	for l := 0; l < losers; l++ {
		tx, err := w.p.db.Begin()
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < loserInserts; i++ {
			k := 4*int64(fresh[l*loserInserts+i]) + 3
			if _, err := w.p.ix.Insert(tx, btree.EncodeKey(k), payload(w.cfg.seed, k)); err != nil {
				return nil, nil, fmt.Errorf("loser insert: %w", err)
			}
		}
		for i := 0; i < loserDeletes; i++ {
			e := entries[victims[l*loserDeletes+i]]
			if err := w.p.ix.Delete(tx, btree.EncodeKey(e.key), e.rid); err != nil {
				return nil, nil, fmt.Errorf("loser delete: %w", err)
			}
		}
		// Left open: the crash makes it a loser.
	}
	if err := w.p.db.WAL().FlushAll(); err != nil {
		return nil, nil, err
	}
	want := preloaded(w.n, 4)
	return w.img.start(&w.p, w.extOps, func(p *primary) (string, error) {
		got, err := scanAll(p.db, p.ix)
		if err != nil {
			return "", err
		}
		return diffKeys("after restart (losers rolled back)", got, want), nil
	})
}

func (w *mixedSpill) restartAgain() ([]float64, []string, error) { return w.img.secondBatch() }

// zipfItem draws a Zipf-skewed item and scatters ranks over the key space,
// so the hot items sit on different leaves.
func (w *mixedSpill) zipfItem(z *rand.Zipf) int64 {
	const mult = 7919 // prime, coprime to n
	return int64((z.Uint64()*mult + w.cfg.seed) % uint64(w.n))
}

func (w *mixedSpill) ops() []func(*client) {
	ops := make([]func(*client), clientsPerRun)
	for i := range ops {
		own := w.own[i]
		var z *rand.Zipf
		ops[i] = func(c *client) {
			if z == nil {
				z = rand.NewZipf(c.rng, 1.1, 1, uint64(w.n-1))
			}
			item := w.zipfItem(z)
			switch r := c.rng.IntN(100); {
			case r < 60:
				c.txn(classPoint, func() error { return pointTxn(c, &w.p, w.cfg.seed, 4*item) })
			case r < 75:
				lo := 4 * min(item, w.n-16)
				c.txn(classRange, func() error { return rangeTxn(c, &w.p, lo, lo+60, 4, own) })
			default:
				w.toggle(c, own, 4*item+own.offset)
			}
		}
	}
	return ops
}

// toggle inserts k if the client's model lacks it and deletes it otherwise.
func (w *mixedSpill) toggle(c *client, own *toggleKeys, k int64) {
	before := c.committed
	if rid, ok := own.rid[k]; ok {
		c.txn(classWrite, func() error { return deleteTxn(c, &w.p, k, rid) })
		if c.committed > before {
			delete(own.rid, k)
		}
		return
	}
	var rid gistdb.RID
	c.txn(classWrite, func() error {
		var err error
		rid, err = insertTxn(c, &w.p, w.cfg.seed, k)
		return err
	})
	if c.committed > before {
		own.rid[k] = rid
	}
}

func (w *mixedSpill) check() ([]string, error) {
	got, err := scanAll(w.p.db, w.p.ix)
	if err != nil {
		return nil, err
	}
	want := preloaded(w.n, 4)
	for _, o := range w.own {
		for k := range o.rid {
			want = append(want, k)
		}
	}
	sortInt64s(want)
	if d := diffKeys("after the timed phase", got, want); d != "" {
		return []string{d}, nil
	}
	return nil, nil
}

func (w *mixedSpill) snapshot() snapshot         { return snapshot{primary: w.p.db.Metrics()} }
func (w *mixedSpill) detail(d map[string]metric) {}
func (w *mixedSpill) teardown()                  { w.p.close() }

// toggleKeys is a mixed-spill client's committed model: the keys
// 4*item+offset it has inserted and not deleted. Offsets differ per
// client, so no two clients write the same key.
type toggleKeys struct {
	rid    map[int64]gistdb.RID
	offset int64
}

func (t *toggleKeys) owns(k int64) bool { return k&3 == t.offset }

func (t *toggleKeys) countIn(lo, hi int64) int {
	n := 0
	for k := lo - lo%4 + t.offset; k <= hi; k += 4 {
		if _, ok := t.rid[k]; ok && k >= lo {
			n++
		}
	}
	return n
}
