// Command ladderbench is the layer-ladder benchmark: one process that
// drives a workload against the public surface of the nbqueue stack
// (word ring → Queue[T] → Fabric → pipeline hop → jobs.Server → HTTP),
// checks that every output is correct, and prints one JSON result line.
//
//	ladderbench --workload queue-pairs --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of the named
// workload. With --trace 1 the workload runs once traced and once
// untraced (the difference is the tracing overhead), and short traced
// passes of the other workloads complete the ladder, so the result
// carries every per-layer metric. README.md explains the workloads and
// the metric map; run.py builds this package and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// pass is one run of one workload.
type pass struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	wd       *watchdog
}

// outcome is what a pass measured. e2e holds the end-to-end metrics,
// layer the per-layer metrics (traced passes only).
type outcome struct {
	e2e       metricSet
	layer     metricSet
	attempted uint64
	failed    uint64
	spans     []span
}

// checkError marks an output check that failed: the program under test
// produced a wrong result, as opposed to the benchmark failing to run.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "output check failed: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

// workloads maps each workload name to its pass function.
var workloads = map[string]func(p *pass) (*outcome, error){
	"queue-pairs":     runQueuePairs,
	"pipeline-cancel": runPipelineCancel,
	"jobs-http":       runJobsHTTP,
}

// ladderOrder is the order of the short ladder passes in a traced run.
var ladderOrder = []string{"queue-pairs", "pipeline-cancel", "jobs-http"}

// ladderWindow is the measured window of each ladder pass of a traced
// run; the traced workload itself runs for --seconds.
const ladderWindow = 2 * time.Second

// warmup is how long every pass runs its workload before the measured
// window opens, so that what ran on the machine before (another
// workload, a build) has faded by then.
const warmup = time.Second

// endToEnd lists the end-to-end metrics every untraced run reports.
// The latency tail (p90, p99) varies between runs by more than any
// useful bound, so it is a per-layer diagnostic.
var endToEnd = []string{"throughput_per_s", "latency_p50_us", "cpu_us_per_op", "heap_after_gc_mb", "setup_s"}

// perLayer lists the per-layer metrics every traced run reports.
var perLayer = func() []string {
	names := []string{
		"ring.pair_ns.evq-cas.solo", "ring.pair_ns.evq-llsc.solo", "ring.pair_ns.evq-llsc",
		"ring.llsc_over_cas", "ring.full_retry_ratio",
		"queue.pair_ns", "queue.payload_overhead_ns", "queue.pair_ns.metrics_on",
		"queue.metrics_overhead_ratio", "queue.allocs_per_pair", "queue.empty_dequeue_ratio",
		"fabric.enqueue_ns", "fabric.dequeue_ns", "fabric.empty_poll_ratio", "fabric.refused",
	}
	for _, st := range stageNames {
		for _, m := range []string{"wait_us_p50", "wait_us_p99", "hop_us", "empty_poll_ratio", "busy_share"} {
			names = append(names, "pipeline."+st+"."+m)
		}
	}
	names = append(names,
		"pipeline.egress.emit_us", "pipeline.fenced", "pipeline.fence_drops", "pipeline.cancel_late", "pipeline.shed",
		"jobs.push_us", "jobs.ack_us", "jobs.queue_wait_us_p50", "jobs.queue_wait_us_p99",
		"jobs.fetch_empty_ratio", "jobs.tracked_end", "jobs.heap_bytes_per_job",
		"http.rtt_us.push", "http.rtt_us.fetch", "http.rtt_us.ack",
		"http.handler_us.push", "http.handler_us.fetch", "http.handler_us.ack",
		"http.transport_us.push", "http.encode_us.push",
		"runtime.gc_cpu_fraction", "runtime.allocs_per_op", "runtime.gen_late_us_p50", "runtime.gen_late_us_p99",
	)
	for _, w := range ladderOrder {
		names = append(names, w+".latency_p90_us", w+".latency_p99_us")
	}
	for _, m := range endToEnd {
		names = append(names, "trace_overhead."+m)
	}
	return names
}()

func main() {
	workload := flag.String("workload", "", "workload: queue-pairs, pipeline-cancel or jobs-http")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured window of the workload, in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory for the traced run's spans (none written when empty)")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fatalf("unknown --workload %q (want queue-pairs, pipeline-cancel or jobs-http)", *workload)
	}
	if *seconds < 1 || *seconds > 60 {
		fatalf("--seconds %d out of range 1..60", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace %d: want 0 or 1", *trace)
	}
	fmt.Printf("ladderbench: workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d go=%s\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())

	window := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 0 {
		res, err = untracedRun(*workload, *seed, window)
	} else {
		res, err = tracedRun(*workload, *seed, window, *spansDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ladderbench: workload %s seed %d: %v\n", *workload, *seed, err)
		var ce *checkError
		if errors.As(err, &ce) {
			printResult(&result{Correct: false, Attempted: 1, Failed: 1, Metrics: metricSet{}})
		}
		os.Exit(1)
	}
	printResult(res)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ladderbench: "+format+"\n", args...)
	os.Exit(2)
}

func printResult(r *result) {
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
}

// runPass runs one workload pass under its own watchdog.
func runPass(workload string, seed uint64, window time.Duration, traced bool) (*outcome, error) {
	p := &pass{workload: workload, seed: seed, window: window, traced: traced}
	p.wd = startWatchdog(workload, seed, window+60*time.Second)
	defer p.wd.stop()
	return workloads[workload](p)
}

func untracedRun(workload string, seed uint64, window time.Duration) (*result, error) {
	o, err := runPass(workload, seed, window, false)
	if err != nil {
		return nil, err
	}
	if err := requireAll(o.e2e, endToEnd); err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: o.e2e}, nil
}

// tracedRun runs the workload untraced and traced, then the other
// workloads as short traced ladder passes, and reports every per-layer
// metric plus the tracing overhead per end-to-end metric. The untraced
// pass goes first so that its heap holds none of the traced pass's
// spans.
func tracedRun(workload string, seed uint64, window time.Duration, spansDir string) (*result, error) {
	plain, err := runPass(workload, seed, window, false)
	if err != nil {
		return nil, err
	}
	traced, err := runPass(workload, seed, window, true)
	if err != nil {
		return nil, err
	}
	layer := metricSet{}
	for k, v := range traced.layer {
		layer[k] = v
	}
	for _, m := range endToEnd {
		t, u := traced.e2e[m], plain.e2e[m]
		layer.put("trace_overhead."+m, t.Value-u.Value, t.Unit)
	}
	attempted := traced.attempted + plain.attempted
	failed := traced.failed + plain.failed
	spans := traced.spans
	for _, w := range ladderOrder {
		if w == workload {
			continue
		}
		o, err := runPass(w, seed, ladderWindow, true)
		if err != nil {
			return nil, fmt.Errorf("ladder pass %s: %w", w, err)
		}
		for k, v := range o.layer {
			if _, ok := layer[k]; !ok {
				layer[k] = v
			}
		}
		attempted += o.attempted
		failed += o.failed
		spans = append(spans, o.spans...)
	}
	if err := requireAll(layer, perLayer); err != nil {
		return nil, err
	}
	if spansDir != "" {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Printf("ladderbench: wrote %d spans to %s\n", len(spans), path)
	}
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: layer}, nil
}

// requireAll reports a name the set lacks or a value JSON cannot carry.
func requireAll(set metricSet, names []string) error {
	for _, n := range names {
		m, ok := set[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	return nil
}

// watchdog aborts the process when a pass overruns its limit, naming
// the workload, the seed and the phase it was stuck in.
type watchdog struct {
	phase atomic.Pointer[string]
	timer *time.Timer
}

func startWatchdog(workload string, seed uint64, limit time.Duration) *watchdog {
	w := &watchdog{}
	w.enter("start")
	w.timer = time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "ladderbench: watchdog: workload %s seed %d stuck in phase %q after %v\n",
			workload, seed, *w.phase.Load(), limit)
		os.Exit(3)
	})
	return w
}

func (w *watchdog) enter(phase string) { w.phase.Store(&phase) }
func (w *watchdog) stop()              { w.timer.Stop() }

// quantile returns the q-quantile of xs by nearest rank, sorting xs in
// place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// startSetup collects the garbage of the previous set-up and starts
// timing the next, so that no set-up pays for another's collection.
func startSetup() time.Time {
	runtime.GC()
	return time.Now()
}

// median of a few set-up timings.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC is the live heap after a forced collection, in bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runtimeSample is a reading of the allocation and GC CPU counters.
type runtimeSample struct {
	mallocs      uint64
	gcCPU, total float64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{mallocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), total: s[2].Value.Float64()}
}

// putRuntime records the runtime layer over [a, b] for ops operations.
func putRuntime(layer metricSet, a, b runtimeSample, ops float64) {
	layer.put("runtime.gc_cpu_fraction", ratio(b.gcCPU-a.gcCPU, b.total-a.total), "ratio")
	layer.put("runtime.allocs_per_op", ratio(float64(b.mallocs-a.mallocs), ops), "count")
}

// usec converts nanoseconds to microseconds.
func usec(ns float64) float64 { return ns / 1e3 }
