package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	gistdb "repro"
	"repro/internal/buffer"
)

// Transaction classes a client times separately.
const (
	classPoint   = iota // point lookup (primary or replica), Begin..Commit/Close
	classRange          // RepeatableRead range of about 16 keys
	classWrite          // single insert or delete, including the commit ack
	classVisible        // primary Commit return .. replica WaitApplied return
	nClasses
)

var classNames = [nClasses]string{"point", "range", "write", "repl_visible"}

// Failure classes of a failed attempt.
const (
	failDeadlock = iota // deadlock victim: ErrLockDeadlock / ErrAborted
	failPool            // buffer.ErrPoolExhausted
	failCancel          // context cancellation or deadline
	failOther
	nFailClasses
)

var failNames = [nFailClasses]string{"deadlock", "pool_exhausted", "cancel", "other"}

// maxAttempts bounds the retries of a transaction that lost a deadlock or
// found the pool exhausted; both are transient and an application retries
// them, after a random backoff that grows with each try so that two
// clients repeating the same conflict fall out of step. Any other error
// fails the transaction at once.
const (
	maxAttempts  = 16
	retryBackoff = 50 * time.Microsecond
)

func classify(err error) int {
	switch {
	case errors.Is(err, gistdb.ErrLockDeadlock), errors.Is(err, gistdb.ErrAborted):
		return failDeadlock
	case errors.Is(err, buffer.ErrPoolExhausted):
		return failPool
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return failCancel
	default:
		return failOther
	}
}

// client is one closed-loop session. A client is driven by one goroutine
// and shares nothing mutable with other clients while a phase runs.
type client struct {
	id  int
	rng *rand.Rand

	lat       [nClasses][]float64 // µs; a failed transaction records +Inf
	bySlice   [][]float64         // µs of every non-visibility transaction, by slice of the phase
	epoch     time.Time           // phase start
	slice     time.Duration       // slice length
	committed int64               // transactions that committed
	attempted int64               // transactions started (retries not counted)
	failedTxn int64               // transactions that ended in an error
	tries     int64               // attempts, retries included
	fails     [nFailClasses]int64 // failed attempts by class
	lastErr   error
	violation []string

	tr   *clientTrace // nil when the phase is untraced
	root int32        // span index of the open transaction, -1 if none
}

// txn runs one transaction through attempt, retrying transient failures,
// and records its latency from the first attempt's start.
func (c *client) txn(class int, attempt func() error) {
	c.attempted++
	start := time.Now()
	for try := 1; ; try++ {
		c.tries++
		err := attempt()
		if err == nil {
			c.committed++
			c.record(class, start, float64(time.Since(start).Nanoseconds())/1e3)
			return
		}
		fc := classify(err)
		c.fails[fc]++
		c.lastErr = err
		if (fc != failDeadlock && fc != failPool) || try == maxAttempts {
			c.failedTxn++
			c.record(class, start, math.Inf(1))
			return
		}
		time.Sleep(time.Duration(c.rng.Int64N(int64(try) * int64(retryBackoff))))
	}
}

// record files a transaction's latency under its class and under the
// slice of the phase in which it started.
func (c *client) record(class int, start time.Time, us float64) {
	c.lat[class] = append(c.lat[class], us)
	if i := int(start.Sub(c.epoch) / c.slice); i < len(c.bySlice) {
		c.bySlice[i] = append(c.bySlice[i], us)
	}
}

// sample records one extra latency sample (replica visibility).
func (c *client) sample(class int, d time.Duration) {
	c.lat[class] = append(c.lat[class], float64(d.Nanoseconds())/1e3)
}

func (c *client) violate(format string, args ...any) {
	if len(c.violation) < 20 {
		c.violation = append(c.violation, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// phaseResult merges the clients of one phase.
type phaseResult struct {
	elapsed    time.Duration
	lat        [nClasses][]float64
	all        []float64   // every transaction class except visibility
	slices     [][]float64 // the same, by slice of the phase
	slice      time.Duration
	committed  int64
	attempted  int64
	failedTxn  int64
	tries      int64
	fails      [nFailClasses]int64
	lastErr    error
	violations []string
	traces     []*clientTrace
}

// sliceLen is the length of the slices a phase's transactions are filed by.
const sliceLen = 100 * time.Millisecond

// runPhase runs one goroutine per op function (op i drives client i) for d
// and waits for all of them. Each op call is one closed-loop transaction.
// Transactions are also filed by the slice of d they started in, so that a
// phase's figures can be the median over its slices.
func runPhase(seed uint64, phase int, d time.Duration, traced bool, ops []func(*client)) *phaseResult {
	clients := make([]*client, len(ops))
	nSlices := max(1, int(d/sliceLen))
	slice := d / time.Duration(nSlices)
	epoch := time.Now()
	for i := range clients {
		clients[i] = &client{id: i, rng: rand.New(rand.NewPCG(seed, uint64(phase*16+i+1))),
			bySlice: make([][]float64, nSlices), epoch: epoch, slice: slice}
		if traced {
			clients[i].tr = newClientTrace(epoch)
		}
	}
	deadline := epoch.Add(d)
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		go func(c *client, op func(*client)) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(c)
			}
		}(clients[i], op)
	}
	wg.Wait()
	pr := &phaseResult{elapsed: time.Since(epoch), slices: make([][]float64, nSlices), slice: slice}
	for _, c := range clients {
		for i, v := range c.bySlice {
			pr.slices[i] = append(pr.slices[i], v...)
		}
		for k := range c.lat {
			pr.lat[k] = append(pr.lat[k], c.lat[k]...)
			if k != classVisible {
				pr.all = append(pr.all, c.lat[k]...)
			}
		}
		pr.committed += c.committed
		pr.attempted += c.attempted
		pr.failedTxn += c.failedTxn
		pr.tries += c.tries
		for k := range c.fails {
			pr.fails[k] += c.fails[k]
		}
		if c.lastErr != nil {
			pr.lastErr = c.lastErr
		}
		pr.violations = append(pr.violations, c.violation...)
		if c.tr != nil {
			pr.traces = append(pr.traces, c.tr)
		}
	}
	return pr
}

// quantile returns the q-quantile of v (sorted in place) and the sample
// count. An infinite sample is a failed transaction; a quantile landing on
// one reports the phase length, the least it could have taken.
func quantile(v []float64, q float64, phase time.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(v) {
		sort.Float64s(v)
	}
	x := v[int(math.Min(float64(len(v)-1), math.Floor(q*float64(len(v)))))]
	if math.IsInf(x, 1) {
		return float64(phase.Microseconds())
	}
	return x
}

// sliced applies f to each slice's latencies and returns the q-quantile
// of the per-slice values.
func (pr *phaseResult) sliced(q float64, f func(v []float64) float64) float64 {
	per := make([]float64, len(pr.slices))
	for i, v := range pr.slices {
		per[i] = f(v)
	}
	sort.Float64s(per)
	return per[int(q*float64(len(per)-1)+0.5)]
}

// slicedTput is the q-quantile over slices of transactions committed per
// second.
func (pr *phaseResult) slicedTput(q float64) float64 {
	return pr.sliced(q, func(v []float64) float64 {
		n := 0
		for _, x := range v {
			if !math.IsInf(x, 1) {
				n++
			}
		}
		return float64(n) / pr.slice.Seconds()
	})
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
