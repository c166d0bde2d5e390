// Command perfbench is the repository's benchmark of record. Each
// workload mirrors one slingserver deployment (see workloads.json and
// README.md) and is driven from this process with inputs generated from
// --seed:
//
//	perfbench --workload online-zipf|analytics-uniform|dynamic-rw \
//	    --seed N --seconds S --trace 0|1 [--work DIR] [--bench BENCHMARK.json]
//
// With --trace 0 it measures the end-to-end metrics BENCHMARK.json
// lists; with --trace 1 it runs the same deployment half untraced and
// half traced, replays the workload's input stream through each layer
// in a closed loop, and reports the per-layer metrics. A human-readable
// report goes to stderr; the last stdout line is the JSON result. Any
// wrong answer makes the run fail with a non-zero exit.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sling"
)

//go:embed workloads.json
var workloadsJSON []byte

type buildCfg struct {
	Eps       float64 `json:"eps"`
	C         float64 `json:"c"`
	Workers   int     `json:"workers"`
	BuildSeed uint64  `json:"build_seed"`
}

type mixCfg struct {
	PairShare   float64 `json:"pair_share"`
	TopK        int     `json:"topk_k"`
	ZipfS       float64 `json:"zipf_s"`
	Batch       int     `json:"batch"`
	UpdateBatch int     `json:"update_batch"`
	EdgeWindow  int     `json:"edge_window"`
}

type workloadCfg struct {
	Dataset           string    `json:"dataset"`
	Scale             float64   `json:"scale"`
	Mix               mixCfg    `json:"mix"`
	RatesQPS          []float64 `json:"rates_qps"`
	P99LimitMs        float64   `json:"p99_limit_ms"`
	WarmupS           float64   `json:"warmup_s"`
	DynWalks          int       `json:"dyn_walks"`
	RebuildThreshold  int       `json:"rebuild_threshold"`
	ReadRateQPS       float64   `json:"read_rate_qps"`
	UpdateBatchesPerS float64   `json:"update_batches_per_s"`
}

// Every workload sets up setups times and reports the median (once in
// the traced run). online-zipf and analytics-uniform split their window
// into rounds, roundsPerSetup of them on each set-up. analytics-uniform
// and the shard row split the index into shards.
const (
	setups         = 3
	roundsPerSetup = 2
	rounds         = setups * roundsPerSetup
	shards         = 2
)

type config struct {
	Build     buildCfg               `json:"build"`
	Workloads map[string]workloadCfg `json:"workloads"`
}

func (b buildCfg) options() []sling.BuildOption {
	return []sling.BuildOption{sling.WithEps(b.Eps), sling.WithC(b.C), sling.WithWorkers(b.Workers), sling.WithSeed(b.BuildSeed)}
}

// benchSpec is the part of BENCHMARK.json this program reads: the metric
// names and units each mode must report.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// run is one invocation: configuration, counters and collected metrics.
type run struct {
	build   buildCfg
	cfg     workloadCfg
	name    string
	seed    uint64
	seconds float64
	trace   bool
	work    string // scratch directory for index files and WALs
	out     string // where the traced run writes its spans

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failMsgs  []string

	mu      sync.Mutex
	metrics map[string]reported
}

type reported struct {
	value   float64
	unit    string
	samples int // 0 for values that are not sample statistics
}

// fail counts one failed op and keeps the first few reasons for stderr.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	if len(r.failMsgs) < 10 {
		r.failMsgs = append(r.failMsgs, fmt.Sprintf(format, args...))
	}
	r.failMu.Unlock()
}

// put records a metric for the report and, when BENCHMARK.json lists it
// for this mode, for the JSON result.
func (r *run) put(name string, value float64, unit string, samples int) {
	r.mu.Lock()
	r.metrics[name] = reported{value, unit, samples}
	r.mu.Unlock()
}

// roundLatency records, under prefix, the median over rounds of each
// round's exact p50 and p99 (µs).
func (r *run) roundLatency(prefix string, rounds []samples) {
	r.put(prefix+"_p50_us", medianOver(rounds, 0.50), "us", count(rounds))
	r.put(prefix+"_p99_us", medianOver(rounds, 0.99), "us", count(rounds))
}

func main() {
	workload := flag.String("workload", "", "online-zipf, analytics-uniform or dynamic-rw")
	seed := flag.Uint64("seed", 1, "input-stream seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced per-layer run")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory (removed per run)")
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *traceFlag == 1, *work, *benchPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds float64, trace bool, work, benchPath string) error {
	var cfg config
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return fmt.Errorf("workloads.json: %w", err)
	}
	wc, ok := cfg.Workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{build: cfg.Build, cfg: wc, name: workload, seed: seed, seconds: seconds, trace: trace,
		work: dir, out: filepath.Dir(work), metrics: map[string]reported{}}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d\n",
		workload, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	switch workload {
	case "online-zipf":
		err = runOnline(r)
	case "analytics-uniform":
		err = runAnalytics(r)
	case "dynamic-rw":
		err = runDynamic(r)
	}
	if err != nil {
		return err
	}
	r.put("peak_rss_mb", peakRSSMiB(), "MiB", 0)
	r.report(os.Stderr)

	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]map[string]any{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if got.unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, got.unit, m.Unit)
		}
		if math.IsNaN(got.value) || math.IsInf(got.value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, got.value)
		}
		res.Metrics[m.Name] = map[string]any{"value": got.value, "unit": got.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return nil
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format, args...) }

// report prints every collected metric with its unit, its sample count
// and the highest percentile the sample supports.
func (r *run) report(w io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %16s %-9s %9s %s\n", "metric", "value", "unit", "samples", "top-pct")
	for _, n := range names {
		m := r.metrics[n]
		samples, top := "-", "-"
		if m.samples > 0 {
			samples = fmt.Sprint(m.samples)
			top = fmt.Sprintf("p%g", topPercentile(m.samples))
		}
		fmt.Fprintf(w, "%-36s %16.6g %-9s %9s %s\n", n, m.value, m.unit, samples, top)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", r.attempted.Load(), r.failed.Load())
	for _, msg := range r.failMsgs {
		fmt.Fprintln(w, "  failure:", msg)
	}
}

// timed runs setup setups times (once in the traced run) and records
// the median as setup_s. measure, when not nil, runs on each set-up
// before the next one starts: the host's speed drifts over seconds, so
// a window spread over the whole run varies less from run to run than
// one at its end. Every set-up but the last is then torn down by
// teardown; the last is returned.
func timed[T any](r *run, setup func(i int) (T, error), measure func(T) error, teardown func(T)) (T, error) {
	n := setups
	if r.trace {
		n = 1
	}
	var (
		last  T
		times samples
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup(i)
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		if measure != nil {
			// Measure from a clean heap too: the set-up's garbage
			// would otherwise decide when the collector runs.
			debug.FreeOSMemory()
			if err := measure(v); err != nil {
				return last, err
			}
		}
		if i < n-1 {
			teardown(v)
			// Start the next set-up from a clean heap, so peak memory
			// does not depend on when the collector last ran.
			debug.FreeOSMemory()
		}
		last = v
	}
	r.put("setup_s", times.q(0.5), "s", len(times))
	return last, nil
}
