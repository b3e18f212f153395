package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	gistdb "repro"
	"repro/internal/btree"
)

// replicaFollow: the only workload that uses repl and continuous redo. An
// in-memory primary with 20k keys ships its log to a replica over an
// in-process net.Pipe. One client writes on the primary (75% fresh
// inserts, 25% deletes of its own keys) and times how long each commit
// takes to become visible on the replica; the other runs ReadCommitted
// point lookups on the replica.
type replicaFollow struct {
	cfg    config
	n      int64
	pool   int
	p      primary
	extOps gistdb.Ops
	img    memImage
	rep    *gistdb.ReplicaDB
	rix    *gistdb.ReplicaIndex
	serve  sync.WaitGroup // shipper sessions
	own    *ownKeys
}

// visibleTimeout bounds one wait for the replica; a wait that needs longer
// counts as a failure.
const visibleTimeout = 10 * time.Second

func newReplicaFollow(cfg config) workload {
	return &replicaFollow{cfg: cfg, n: 20_000, pool: 1024, extOps: extensionOps(cfg.trace),
		own: newOwnKeys(durableKeyBase)}
}

func (w *replicaFollow) setup() error {
	w.p.close()
	var err error
	w.p, err = openPreloaded(gistdb.Options{PoolPages: w.pool}, w.extOps, w.cfg.seed, shuffled(w.cfg.seed, preloaded(w.n, 1)))
	return err
}

// restart crash-restarts the primary, then attaches the replica to the
// restarted primary and waits until it has caught up.
func (w *replicaFollow) restart() ([]float64, []string, error) {
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
	db := w.p.db
	w.rep, err = gistdb.OpenReplica(gistdb.Options{PoolPages: w.pool}, func() (io.ReadWriteCloser, error) {
		c, srv := net.Pipe()
		w.serve.Add(1)
		go func() {
			defer w.serve.Done()
			_ = db.Shipper().Serve(srv) // ends when either side closes; the replica reports stream errors
		}()
		return c, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := w.catchUp(); err != nil {
		return nil, nil, err
	}
	if w.rix, err = w.rep.OpenIndex(indexName, w.extOps); err != nil {
		return nil, nil, err
	}
	return times, viol, nil
}

func (w *replicaFollow) restartAgain() ([]float64, []string, error) { return w.img.secondBatch() }

// catchUp waits until the replica has applied everything the primary has
// flushed.
func (w *replicaFollow) catchUp() error {
	if err := w.p.db.WAL().FlushAll(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.rep.WaitApplied(ctx, w.p.db.WAL().FlushedLSN()); err != nil {
		return fmt.Errorf("replica catch-up: %w", err)
	}
	return nil
}

func (w *replicaFollow) ops() []func(*client) {
	writer := func(c *client) {
		if !freshWrite(c, &w.p, w.cfg.seed, w.own, 1) {
			return
		}
		target := w.p.db.WAL().FlushedLSN()
		s := c.open(spanVisible)
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), visibleTimeout)
		err := w.rep.WaitApplied(ctx, target)
		cancel()
		d := time.Since(start)
		c.close(s, 0)
		if err != nil {
			c.fails[classify(err)]++
			c.lastErr = err
			c.violate("replica did not apply LSN %d: %v", target, err)
			return
		}
		c.sample(classVisible, d)
	}
	reader := func(c *client) {
		k := c.rng.Int64N(w.n)
		c.txn(classPoint, func() error { return w.replicaPoint(c, k) })
	}
	return []func(*client){writer, reader}
}

// replicaPoint is a ReadCommitted point lookup plus record fetch on the
// replica, checked against the preload (the writer never touches preloaded
// keys).
func (w *replicaFollow) replicaPoint(c *client, k int64) error {
	root := c.openTxn()
	s := c.open(spanBegin)
	tx, err := w.rep.Begin()
	if err != nil {
		c.close(s, 0)
		c.closeTxn(root, 0)
		return err
	}
	id := tx.ID()
	c.close(s, id)
	s = c.open(spanRSearch)
	hits, err := w.rix.Search(tx, btree.EncodeRange(k, k), gistdb.ReadCommitted)
	c.close(s, id)
	if err == nil {
		if len(hits) != 1 || btree.DecodeKey(hits[0].Key) != k {
			c.violate("replica lookup of %d returned %d hits", k, len(hits))
		} else {
			s = c.open(spanFetch)
			var rec []byte
			rec, err = w.rix.Fetch(hits[0].RID)
			c.close(s, id)
			if err == nil && !bytes.Equal(rec, payload(w.cfg.seed, k)) {
				c.violate("replica record of key %d differs from the preload", k)
			}
		}
	}
	s = c.open(spanCommit)
	if cerr := tx.Close(); err == nil {
		err = cerr
	}
	c.close(s, id)
	c.closeTxn(root, id)
	return err
}

// check quiesces, lets the replica catch up, and requires its live entries
// to equal the primary's exactly, and the primary's to equal the model.
func (w *replicaFollow) check() ([]string, error) {
	if err := w.catchUp(); err != nil {
		return nil, err
	}
	got, err := scanAll(w.p.db, w.p.ix)
	if err != nil {
		return nil, err
	}
	tx, err := w.rep.Begin()
	if err != nil {
		return nil, err
	}
	hits, err := w.rix.Search(tx, btree.EncodeRange(-1<<62, 1<<62), gistdb.ReadCommitted)
	if cerr := tx.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var viol []string
	if d := diffEntries("replica vs primary", scanResults(hits), got); d != "" {
		viol = append(viol, d)
	}
	want := append(preloaded(w.n, 1), w.own.keys...)
	sortInt64s(want)
	if d := diffKeys("primary vs model", got, want); d != "" {
		viol = append(viol, d)
	}
	return viol, nil
}

func (w *replicaFollow) snapshot() snapshot {
	return snapshot{primary: w.p.db.Metrics(), replica: w.rep.Metrics()}
}

func (w *replicaFollow) detail(d map[string]metric) {}

func (w *replicaFollow) teardown() {
	if w.rep != nil {
		_ = w.rep.Close() // stops the receiver; nothing reads the replica again
	}
	w.p.close() // closes the shipper's sessions
	w.serve.Wait()
}
