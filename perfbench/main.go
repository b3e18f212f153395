// Command perfbench is the repository benchmark: closed-loop transaction
// workloads driven through the public gistdb facade, reporting end-to-end
// metrics from an untraced run and per-layer metrics from a traced run.
//
// Usage (from the checkout root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload read-cached --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines are a readable
// report: every timing with its sample count, the run stamp, and (traced)
// the per-layer detail. The same record is written to
// .bench_build/results/, and traced runs write their spans to
// .bench_build/trace/. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// setupsPerRun is how many times an untraced run builds its initial state;
// setup_s is their median. Traced runs build it once.
const setupsPerRun = 3

// watchdog bounds a whole run; a run that has not finished by then prints
// every goroutine's stack and exits non-zero instead of hanging.
const watchdog = 150 * time.Second

// clientsPerRun is the closed-loop client count: at most nproc on the
// machines the benchmark targets (2 cores).
const clientsPerRun = 2

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // build, scratch and result directory inside the checkout
}

// metric is one reported value; n is the sample count behind a timing
// (0 for counts and ratios).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// runResult is everything one invocation measured.
type runResult struct {
	Stamp      map[string]any    `json:"stamp"`
	Correct    bool              `json:"correct"`
	Violations []string          `json:"violations,omitempty"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Metrics    map[string]metric `json:"metrics"` // the contract metrics
	Detail     map[string]metric `json:"detail"`  // everything else measured
}

func main() {
	var cfg config
	var seed int64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+"), or all")
	flag.Int64Var(&seed, "seed", 1, "seed for every generated key and operation")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if cfg.workload == "all" {
		os.Exit(runAll())
	}
	cfg.seed = uint64(seed)
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg.outDir = filepath.Join(wd, ".bench_build")
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; goroutines:\n", watchdog)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best effort on the way out
		os.Exit(3)
	})

	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	report(cfg, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in turn, each in a child process of its own
// with the same flags, and returns the exit code: 0 when all succeeded.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, name := range workloadNames() {
		var args []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, append(args, "--workload", name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func stamp(cfg config) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	host, _ := os.Hostname() // best effort: the stamp is informational
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"clients":    clientsPerRun,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"host":       host,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// report prints the readable lines, writes the result record, and prints
// the contract line last.
func report(cfg config, res *runResult) {
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	keys := make([]string, 0, len(res.Stamp))
	for k := range res.Stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%v", k, res.Stamp[k])
	}
	fmt.Printf("# stamp:%s\n", sb.String())
	printMetrics := func(title string, m map[string]metric) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("# %s\n", title)
		for _, k := range names {
			v := m[k]
			line := fmt.Sprintf("#   %-34s %14.4f %s", k, v.Value, v.Unit)
			if v.N > 0 {
				line += fmt.Sprintf("  (n=%d)", v.N)
			}
			if v.Note != "" {
				line += "  [" + v.Note + "]"
			}
			fmt.Println(line)
		}
	}
	printMetrics("metrics", res.Metrics)
	printMetrics("detail", res.Detail)
	for _, v := range res.Violations {
		fmt.Printf("# VIOLATION: %s\n", v)
	}
	fmt.Printf("# attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)

	dir := filepath.Join(cfg.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace))
		if b, err := json.MarshalIndent(res, "", "  "); err == nil {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing result record:", err)
			}
		}
	}

	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]outMetric{}}
	for k, v := range res.Metrics {
		out.Metrics[k] = outMetric{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
