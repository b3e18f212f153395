package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	gistdb "repro"
)

// writeDurable: the durability path. A file-backed DB with fsync'd commits
// and 20k preloaded keys; each client runs single-write transactions, 75%
// inserts of a fresh key with a 64 B record and 25% deletes of a key it
// inserted earlier. It loads WAL append, group commit and fsync, heap
// insert, bounding-predicate adjustment and splits, and does no reads.
type writeDurable struct {
	cfg    config
	n      int64
	pool   int
	dir    string // the live database
	image  string // a copy of the crash image
	p      primary
	extOps gistdb.Ops
	own    [clientsPerRun]*ownKeys
	bytes  int64 // page file plus log bytes after the final close
	live   int64 // live entries after the final close
}

// durableKeyBase is where the clients' fresh keys start, above the preload.
const durableKeyBase = 1 << 40

func newWriteDurable(cfg config) workload {
	work := filepath.Join(cfg.outDir, "work", fmt.Sprintf("write-durable-%d", os.Getpid()))
	w := &writeDurable{cfg: cfg, n: 20_000, pool: 1024, extOps: extensionOps(cfg.trace),
		dir: filepath.Join(work, "db"), image: filepath.Join(work, "image")}
	for i := range w.own {
		w.own[i] = newOwnKeys(durableKeyBase + int64(i))
	}
	return w
}

func (w *writeDurable) open() error {
	var err error
	w.p, err = w.openDir(w.dir)
	return err
}

func (w *writeDurable) openDir(dir string) (primary, error) {
	db, err := gistdb.Open(gistdb.Options{Dir: dir, PoolPages: w.pool})
	if err != nil {
		return primary{}, err
	}
	ix, err := db.OpenIndex(indexName, w.extOps)
	if err != nil {
		_ = db.Close() // the open error is what gets reported
		return primary{}, err
	}
	return primary{db, ix}, nil
}

func (w *writeDurable) setup() error {
	w.p.close()
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	var err error
	w.p, err = openPreloaded(gistdb.Options{Dir: w.dir, PoolPages: w.pool}, w.extOps, w.cfg.seed, shuffled(w.cfg.seed, preloaded(w.n, 1)))
	return err
}

// restart copies the files of the open, idle database as its crash image
// (every commit is already fsync'd; the page file holds whatever was
// written back), then runs the first batch of restarts: each times Open
// over a fresh copy of that image in the live directory.
func (w *writeDurable) restart() ([]float64, []string, error) {
	if err := copyDir(w.dir, w.image); err != nil {
		return nil, nil, err
	}
	w.p.close()
	return restartBatch(func(bool) (float64, string, error) { return w.restartIn(w.dir, &w.p) })
}

// restartAgain runs the second batch of restarts in a directory of its
// own, leaving the live database alone.
func (w *writeDurable) restartAgain() ([]float64, []string, error) {
	dir := w.dir + "-again"
	var p primary
	defer func() {
		p.close()
		_ = os.RemoveAll(dir) // scratch space; teardown removes it too
	}()
	return restartBatch(func(bool) (float64, string, error) { return w.restartIn(dir, &p) })
}

// restartIn closes p, copies the crash image into dir, times Open over it
// into p and checks the restarted database against the preload.
func (w *writeDurable) restartIn(dir string, p *primary) (float64, string, error) {
	p.close()
	if err := os.RemoveAll(dir); err != nil {
		return 0, "", err
	}
	if err := copyDir(w.image, dir); err != nil {
		return 0, "", err
	}
	runtime.GC() // each restart starts from the same collector state
	t := nowSeconds()
	next, err := w.openDir(dir)
	if err != nil {
		return 0, "", fmt.Errorf("restart: %w", err)
	}
	took := nowSeconds() - t
	*p = next
	got, err := scanAll(p.db, p.ix)
	if err != nil {
		return 0, "", err
	}
	return took, diffKeys("after restart", got, preloaded(w.n, 1)), nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	// Synced, so that no write-back of the copy is left to compete with the
	// timed phase's fsyncs.
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (w *writeDurable) ops() []func(*client) {
	ops := make([]func(*client), clientsPerRun)
	for i := range ops {
		own := w.own[i]
		ops[i] = func(c *client) { freshWrite(c, &w.p, w.cfg.seed, own, clientsPerRun) }
	}
	return ops
}

// check closes the database, measures its files, reopens the directory and
// compares the live entries with the clients' committed model; the
// structure check must find no orphan nodes.
func (w *writeDurable) check() ([]string, error) {
	w.p.close()
	for _, f := range []string{"pages.db", "wal.log"} {
		st, err := os.Stat(filepath.Join(w.dir, f))
		if err != nil {
			return nil, err
		}
		w.bytes += st.Size()
	}
	if err := w.open(); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	var viol []string
	rep, err := w.p.ix.Check()
	if err != nil {
		return nil, err
	}
	if rep.Orphans != 0 {
		viol = append(viol, fmt.Sprintf("after reopen: %d orphan nodes", rep.Orphans))
	}
	got, err := scanAll(w.p.db, w.p.ix)
	if err != nil {
		return nil, err
	}
	w.live = int64(len(got))
	want := preloaded(w.n, 1)
	for _, o := range w.own {
		want = append(want, o.keys...)
	}
	sortInt64s(want)
	if d := diffKeys("after reopen", got, want); d != "" {
		viol = append(viol, d)
	}
	return viol, nil
}

func sortInt64s(v []int64) { sort.Slice(v, func(a, b int) bool { return v[a] < v[b] }) }

func (w *writeDurable) snapshot() snapshot { return snapshot{primary: w.p.db.Metrics()} }

func (w *writeDurable) detail(d map[string]metric) {
	if w.live > 0 {
		// User bytes: the 8-byte key and the record of each live entry.
		d["space_amp"] = metric{Value: float64(w.bytes) / float64(w.live*(8+payloadSize)), Unit: "ratio",
			Note: "page file + log bytes per live key+record byte, after close"}
	}
}

func (w *writeDurable) teardown() {
	w.p.close()
	_ = os.RemoveAll(filepath.Dir(w.dir)) // scratch space; a leftover is harmless
}
