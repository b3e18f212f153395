package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/btree"
)

// Shares of --seconds in a traced run: an untraced phase for the overhead
// baseline, the traced phase the per-layer metrics come from, and the
// extension phase, where clients run one at a time so every extension call
// has exactly one enclosing span.
const (
	untracedShare = 0.4
	tracedShare   = 0.4
	extShare      = 0.2
)

func run(cfg config) (*runResult, error) {
	w := workloads[cfg.workload](cfg)
	defer w.teardown()
	res := &runResult{Stamp: stamp(cfg), Metrics: map[string]metric{}, Detail: map[string]metric{}}

	nSetups := setupsPerRun
	if cfg.trace {
		nSetups = 1
	}
	var setupS []float64
	for i := 0; i < nSetups; i++ {
		runtime.GC() // each set-up starts from the same collector state
		t := nowSeconds()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, nowSeconds()-t)
	}
	// The heap is read before the restarts: from then on it also holds the
	// crash image the second batch of restarts needs.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	restartS, viol, err := w.restart()
	if err != nil {
		return nil, err
	}
	res.Violations = append(res.Violations, viol...)
	recovered := w.snapshot()

	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		if err := measureTraced(cfg, w, res, total, recovered); err != nil {
			return nil, err
		}
	} else {
		measureUntraced(cfg, w, res, total)
		again, viol, err := w.restartAgain()
		if err != nil {
			return nil, err
		}
		res.Violations = append(res.Violations, viol...)
		restartS = append(restartS, again...)
		res.Metrics["setup_s"] = metric{Value: median(setupS), Unit: "s", N: len(setupS)}
		res.Metrics["restart_s"] = metric{Value: median(restartS), Unit: "s", N: len(restartS)}
		res.Metrics["go_mem_mb"] = metric{Value: heapMB, Unit: "MB",
			Note: "live Go heap after set-up, before the restarts and the timed phase"}
	}
	for i, s := range setupS {
		res.Detail[fmt.Sprintf("setup_s.%d", i)] = metric{Value: s, Unit: "s"}
	}
	for i, s := range restartS {
		res.Detail[fmt.Sprintf("restart_s.%d", i)] = metric{Value: s, Unit: "s"}
	}

	viol, err = w.check()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	res.Violations = append(res.Violations, viol...)
	w.detail(res.Detail)
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// measureUntraced runs the timed phase with nothing but the clients' own
// clock reads and fills in the end-to-end metrics other than setup_s,
// restart_s and go_mem_mb.
//
// Throughput and median latency are the medians over the 100-ms slices of
// the phase. Interference from outside the process (another tenant's CPU
// or disk) comes in bursts; a median over a few hundred slices ignores
// bursts that hit fewer than half of them, and it uses every slice, so it
// moves little from one run to the next.
func measureUntraced(cfg config, w workload, res *runResult, total time.Duration) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := w.snapshot()
	cpu0 := cpuTime()
	pr := runPhase(cfg.seed, 0, total, false, w.ops())
	cpu := cpuTime() - cpu0
	counterDetail(res.Detail, before, w.snapshot(), pr.committed)
	absorb(res, pr)
	runtime.ReadMemStats(&m1)
	gcDetail(res.Detail, &m0, &m1)

	quantileOf := func(q float64) func([]float64) float64 {
		return func(v []float64) float64 { return quantile(v, q, pr.slice) }
	}
	slices := fmt.Sprintf("median of %d slices", len(pr.slices))
	res.Metrics["tput_txn_s"] = metric{Value: pr.slicedTput(0.5), Unit: "1/s", N: int(pr.committed), Note: slices}
	res.Metrics["txn_p50_us"] = metric{Value: pr.sliced(0.5, quantileOf(0.50)), Unit: "us", N: len(pr.all), Note: slices}
	res.Detail["cpu_us_per_txn"] = metric{Value: float64(cpu.Microseconds()) / float64(max(pr.committed, 1)), Unit: "us",
		N: int(pr.committed), Note: "process user+system CPU per committed transaction"}
	res.Detail["txn_p99_us"] = metric{Value: pr.sliced(0.5, quantileOf(0.99)), Unit: "us", N: len(pr.all), Note: slices}
	res.Detail["tput_txn_s.pooled"] = metric{Value: float64(pr.committed) / pr.elapsed.Seconds(), Unit: "1/s", N: int(pr.committed)}
	res.Detail["txn_p50_us.pooled"] = metric{Value: quantile(pr.all, 0.50, pr.elapsed), Unit: "us", N: len(pr.all)}
	res.Detail["txn_p99_us.pooled"] = metric{Value: quantile(pr.all, 0.99, pr.elapsed), Unit: "us", N: len(pr.all)}
	classDetail(res.Detail, pr)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.Detail["go.heap_after_phase_mb"] = metric{Value: float64(m1.HeapAlloc) / (1 << 20), Unit: "MB",
		Note: "live Go heap after the timed phase"}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureTraced runs the untraced, traced and extension phases and fills
// in the per-layer metrics; recovered holds the counters of the restart.
func measureTraced(cfg config, w workload, res *runResult, total time.Duration, recovered snapshot) error {
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	a := runPhase(cfg.seed, 0, share(untracedShare), false, w.ops())
	absorb(res, a)

	before := w.snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b := runPhase(cfg.seed, 1, share(tracedShare), true, w.ops())
	runtime.ReadMemStats(&m1)
	after := w.snapshot()
	absorb(res, b)

	ext.calibrate()
	ext.armed.Store(true)
	var c []*phaseResult
	ops := w.ops()
	for i, op := range ops {
		p := runPhase(cfg.seed, 2+i, share(extShare)/time.Duration(len(ops)), true, []func(*client){op})
		absorb(res, p)
		c = append(c, p)
	}
	ext.armed.Store(false)
	ext.cost(btree.Ops{})

	perLayer(res, a, b, c, before, after, recovered, &m0, &m1)
	classDetail(res.Detail, b)
	if err := writeSpans(filepath.Join(cfg.outDir, "trace", cfg.workload+".spans.csv"), b.traces); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// counterDetail reports, for an untraced run, the engine counters that
// explain its tail: lock waits, deadlocks, buffer misses, latch fallbacks.
func counterDetail(d map[string]metric, a, b snapshot, txns int64) {
	perK := func(key string) float64 { return 1000 * ratio(delta(a, b, key), txns) }
	d["lock.waits_per_ktxn"] = metric{Value: perK("lock.waits"), Unit: "count"}
	d["lock.wait_us_per_txn"] = metric{Value: perK("lock.wait_nanos") / 1e6, Unit: "us"}
	d["lock.deadlocks_per_ktxn"] = metric{Value: perK("lock.deadlocks"), Unit: "count"}
	d["buffer.misses_per_ktxn"] = metric{Value: perK("buffer.misses"), Unit: "count"}
	d["latch.opt_fallbacks_per_ktxn"] = metric{Value: 1000 * ratio(deltaP(a, b, "latch.opt_fallbacks"), txns), Unit: "count",
		Note: "per-process"}
}

// gcDetail reports the Go collector's work between two MemStats readings.
func gcDetail(d map[string]metric, m0, m1 *runtime.MemStats) {
	d["go.gc_cycles"] = metric{Value: float64(m1.NumGC - m0.NumGC), Unit: "count"}
	d["go.gc_pause_ms"] = metric{Value: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, Unit: "ms"}
	d["go.gc_cpu_frac"] = metric{Value: m1.GCCPUFraction, Unit: "ratio", Note: "since process start"}
}

// absorb adds a phase's transaction counts and violations to the result.
func absorb(res *runResult, pr *phaseResult) {
	res.Attempted += pr.attempted
	res.Failed += pr.failedTxn
	res.Violations = append(res.Violations, pr.violations...)
}

// classDetail reports each transaction class's latency with its sample
// count, and the failure accounting.
func classDetail(d map[string]metric, pr *phaseResult) {
	for k, v := range pr.lat {
		if len(v) == 0 {
			continue
		}
		d[classNames[k]+"_p50_us"] = metric{Value: quantile(v, 0.50, pr.elapsed), Unit: "us", N: len(v)}
		d[classNames[k]+"_p99_us"] = metric{Value: quantile(v, 0.99, pr.elapsed), Unit: "us", N: len(v)}
	}
	var failed int64
	for k, n := range pr.fails {
		failed += n
		d["fail."+failNames[k]] = metric{Value: float64(n), Unit: "count", Note: "failed attempts"}
	}
	d["failed_frac"] = metric{Value: ratio(failed, pr.tries), Unit: "ratio",
		Note: fmt.Sprintf("failed attempts / %d attempts; deadlock and pool-exhausted attempts are retried", pr.tries)}
	note := "transactions that ended in an error"
	if pr.lastErr != nil {
		note = "last error: " + pr.lastErr.Error()
	}
	d["txn.failed"] = metric{Value: float64(pr.failedTxn), Unit: "count", Note: note}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
