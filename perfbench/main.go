// Command perfbench is the repository's benchmark: four workloads that
// exercise the Theorem 1 stack embedded, sharded with a WAL, served
// over loopback, and served with a warm follower. One run measures one
// workload for a fixed time and prints, as its last line, a JSON object
// with the correctness verdict and the metrics BENCHMARK.json names:
// the end-to-end metrics with -trace 0, the per-layer metrics of a
// traced run with -trace 1. The first line records the context (seed,
// CPUs, GOMAXPROCS, Go version); the line before the result holds the
// run's details (sample counts, ramp probes, generator lag, the host's
// CPU steal).
//
// Run it from the repository root through its wrapper, which builds it
// inside the checkout:
//
//	bash perfbench/run.sh --workload paper-churn --seed 1 --seconds 15 --trace 0
//
// A failed correctness check prints the result with "correct": false
// and exits 1; a usage or set-up error exits 2 without a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit; the lists below
// are the metrics BENCHMARK.json declares, in its order.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_req", "us"},
	{"heap_peak_mb", "MiB"},
	{"reallocs_per_req", "count"},
	{"migrations_per_req", "count"},
	{"ok_frac", "ratio"},
	{"max_rate_rps", "req/s"},
}

var perLayer = []metricSpec{
	{"alignsched.self_ns_per_req", "ns"},
	{"multi.self_ns_per_req", "ns"},
	{"trim.self_ns_per_req", "ns"},
	{"core.self_ns_per_req", "ns"},
	{"core.calls_per_req", "count"},
	{"trim.rebuilds", "count"},
	{"trim.rebuild_ms_total", "ms"},
	{"paper.call_ns_per_req", "ns"},
	{"trace.unattributed_frac", "ratio"},
	{"shard.admit_us_p50", "us"},
	{"shard.admit_us_p99", "us"},
	{"shard.reqs_per_wakeup", "count"},
	{"shard.exec_ns_per_req", "ns"},
	{"shard.rerouted_frac", "ratio"},
	{"shard.imbalance", "ratio"},
	{"wal.records_per_write", "count"},
	{"wal.reqs_per_record", "count"},
	{"wal.bytes_per_req", "B"},
	{"wal.ack_wait_us_p50", "us"},
	{"server.tick_reqs_mean", "count"},
	{"server.singleton_frac", "ratio"},
	{"server.overload_frac", "ratio"},
	{"server.deadline_frac", "ratio"},
	{"client.send_us_p50", "us"},
	{"client.send_us_p99", "us"},
	{"served.hop_us_mean", "us"},
	{"repl.lag_reqs_p99", "count"},
	{"repl.promote_ms", "ms"},
	{"go.alloc_bytes_per_req", "B"},
	{"go.gc_cpu_frac", "ratio"},
	{"gen.lag_us_p50", "us"},
	{"gen.lag_us_p99", "us"},
	{"trace.overhead_frac", "ratio"},
}

// benchWorkload is one benchmark workload. measure runs it untraced and
// fills the end-to-end metrics; traced runs it with tracing and fills
// the per-layer metrics.
type benchWorkload struct {
	measure func(cfg runConfig, out *report) error
	traced  func(cfg runConfig, out *report) error
}

var workloads = map[string]benchWorkload{
	"paper-churn":       {measurePaperChurn, tracePaperChurn},
	"shard-burst":       {measureShardBurst, traceShardBurst},
	"served-steady":     {measureServedSteady, traceServedSteady},
	"served-replicated": {measureServedReplicated, traceServedReplicated},
}

type runConfig struct {
	seed    int64
	seconds float64
	dir     string // scratch directory for WALs, removed at exit
}

// report collects one run's verdict and metrics.
type report struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
	detail            map[string]any // printed on the line before the result
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-churn, shard-burst, served-steady or served-replicated")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for WALs and other run files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, dir: abs}

	ctx, _ := json.Marshal(map[string]any{"context": map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"time": time.Now().UTC().Format(time.RFC3339),
	}})
	fmt.Println(string(ctx))

	rep := &report{values: make(map[string]float64), detail: make(map[string]any)}
	specs := endToEnd
	run := w.measure
	if *trace == 1 {
		specs, run = perLayer, w.traced
	}
	steal0, total0 := hostCPU()
	err = run(cfg, rep)
	if steal1, total1 := hostCPU(); total1 > total0 {
		// The share of the machine's CPU time the hypervisor gave to
		// other guests during the run: high values explain noisy runs.
		rep.detail["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	os.RemoveAll(abs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	out := resultOut{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(specs)),
	}
	for _, s := range specs {
		v, ok := rep.values[s.name]
		if !ok && len(rep.problems) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s\n", *name, s.name)
			os.Exit(2)
		}
		out.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	if d, err := json.Marshal(map[string]any{"detail": rep.detail}); err == nil {
		fmt.Println(string(d))
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// hostCPU reads the machine-wide steal and total CPU ticks from
// /proc/stat; both are 0 where it is unavailable.
func hostCPU() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
