// Command perfbench is the repository benchmark. It drives the runtime
// (taskrt, future, stencil), the serving stack (taskserve, journal,
// telemetry) and the cluster gateway (mesh) through their public APIs, in
// one process, on three workloads that each put a different layer on the
// critical path:
//
//	stencil-ucurve  the paper's HPX-Stencil at a fine and a mid grain
//	serve-single    open-loop single-job POSTs to one taskserve node
//	mesh-batch      closed-loop 32-job batches through a mesh gateway
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload stencil-ucurve --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it runs
// the workload untraced, then again with spans recorded around every call
// into a layer, and prints the per-layer metrics plus the tracing overhead.
// --workload all runs the three workloads in turn. The last line of
// standard output is always one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports with
// --trace 0 (see README.md for what each reads on each workload).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"stencil_fine_s", "s"},
	{"stencil_mid_s", "s"},
	{"ack_p50_ms", "ms"},
	{"done_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"cpu_ms_per_job", "ms"},
	{"rss_peak_mb", "MB"},
}

// movedTails are the tail latencies of the end-to-end table that could not
// be made steady within a bound on a shared 2-core host; they are printed
// with the end-to-end metrics and reported per-layer, from the traced window.
var movedTails = []metricDef{
	{"ack_p99_ms", "ms"},
	{"done_p99_ms", "ms"},
}

// layerMetrics are the per-layer metrics every workload reports with
// --trace 1. A metric of a layer the workload does not drive reads 0.
var layerMetrics = append(append([]metricDef(nil), movedTails...), []metricDef{
	{"failed_frac", "ratio"},
	{"taskrt.tasks.fine", "count"},
	{"taskrt.tasks.mid", "count"},
	{"taskrt.idle_rate.fine", "ratio"},
	{"taskrt.idle_rate.mid", "ratio"},
	{"taskrt.overhead_ns.fine", "ns"},
	{"taskrt.overhead_ns.mid", "ns"},
	{"taskrt.pending_miss_ratio.fine", "ratio"},
	{"taskrt.stolen_per_task.fine", "ratio"},
	{"taskrt.task_ns.mid", "ns"},
	{"taskrt.wait_ns.mid", "ns"},
	{"taskrt.wakeups_per_job", "count"},
	{"taskrt.park_timeouts_per_s", "1/s"},
	{"stencil.allocs_per_task.fine", "count"},
	{"stencil.bytes_per_task.fine", "B"},
	{"counters.skew_snapshots", "count"},
	{"counters.snapshots", "count"},
	{"taskserve.http_ack_us.p50", "us"},
	{"taskserve.http_ack_us.p99", "us"},
	{"taskserve.submit_us.p50", "us"},
	{"taskserve.submit_us.p99", "us"},
	{"taskserve.queue_ms.p50", "ms"},
	{"taskserve.queue_ms.p99", "ms"},
	{"taskserve.exec_ms.p50", "ms"},
	{"taskserve.exec_ms.p99", "ms"},
	{"taskserve.exec_share", "ratio"},
	{"taskserve.allocs_per_job", "count"},
	{"taskserve.bytes_per_job", "B"},
	{"taskserve.store_retained", "count"},
	{"taskserve.shed_overload", "count"},
	{"taskserve.shed_queue", "count"},
	{"taskserve.shed_backlog", "count"},
	{"taskserve.batch_ack_ms.p50", "ms"},
	{"taskserve.batch_ack_ms.p99", "ms"},
	{"journal.appends_per_job", "count"},
	{"journal.fsyncs_per_job", "count"},
	{"journal.group_size", "count"},
	{"journal.append_us", "us"},
	{"journal.append_batch_us", "us"},
	{"mesh.split_factor", "count"},
	{"mesh.spills_per_batch", "count"},
	{"mesh.failovers", "count"},
	{"mesh.node_share_max", "ratio"},
	{"mesh.status_ms.p50", "ms"},
	{"mesh.status_ms.p99", "ms"},
	{"adaptive.grain_moves", "count"},
	{"adaptive.final_grain.stencil1d", "points"},
	{"policyengine.actuations", "count"},
	{"policyengine.vetoes", "count"},
	{"telemetry.scrape_ms.p50", "ms"},
	{"telemetry.scrape_ms.p99", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_p99_us", "us"},
}...)

func init() {
	// Tracing overhead: each end-to-end metric of the traced window minus
	// the same metric of the untraced window that precedes it.
	for _, m := range e2eMetrics {
		if m.name != "setup_s" {
			layerMetrics = append(layerMetrics, metricDef{"trace_overhead." + m.name, m.unit})
		}
	}
}

// value is one measured figure, with the sample count behind it.
type value struct {
	V    float64
	N    int
	Note string
}

// report is everything one workload run measured.
type report struct {
	Workload  string
	Attempted int64
	Failed    int64
	Wrong     int64 // checksum mismatches, also counted in Failed
	E2E       map[string]value
	Layer     map[string]value
	Meta      map[string]any
}

func newReport(name string) *report {
	return &report{Workload: name, E2E: map[string]value{}, Layer: map[string]value{}, Meta: map[string]any{}}
}

// options are the command-line settings shared by every workload.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch space inside the checkout, removed on exit
	traceDir string // where traced runs write their spans
	setups   int    // set-ups per run; setup_s is their median
}

type workloadFunc func(opt options) (*report, error)

var workloads = map[string]workloadFunc{
	"stencil-ucurve": runStencilUcurve,
	"serve-single":   runServeSingle,
	"mesh-batch":     runMeshBatch,
}

var workloadOrder = []string{"stencil-ucurve", "serve-single", "mesh-batch"}

// procsFor is how many processes each workload stands for: the daemons it
// runs in-process plus the load generator. The workload gets nproc Go
// processors (GOMAXPROCS) per process, as the separate processes of a real
// deployment would, so that in-process daemons time-share the cores through
// the OS scheduler rather than through Go's 10ms preemption.
var procsFor = map[string]int{
	"stencil-ucurve": 1, // the runtime alone
	"serve-single":   2, // daemon + load generator
	"mesh-batch":     4, // gateway + 2 nodes + clients
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "stencil-ucurve, serve-single, mesh-batch, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of one timed window")
	traceFlag := fs.Int("trace", 0, "1 = also run a traced window and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadOrder, ", "))
		return 2
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(root)

	var reps []*report
	for _, n := range names {
		opt := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, setups: 3,
			workDir: filepath.Join(root, n), traceDir: filepath.Join(".bench_build", "traces")}
		if opt.trace {
			opt.setups = 1
		}
		if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		prev := runtime.GOMAXPROCS(procsFor[n] * nproc())
		rep, err := workloads[n](opt)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		rep.Meta["host"] = hostFacts(opt.workDir)
		printReport(os.Stdout, rep, opt)
		reps = append(reps, rep)
	}
	out, err := json.Marshal(resultLine(reps, *traceFlag == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine builds the final JSON line. With several workloads (--workload
// all) metric names are prefixed with the workload name.
func resultLine(reps []*report, traced bool) jsonResult {
	defs, pick := e2eMetrics, func(r *report) map[string]value { return r.E2E }
	if traced {
		defs, pick = layerMetrics, func(r *report) map[string]value { return r.Layer }
	}
	res := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if r.Wrong > 0 || r.Attempted == 0 {
			res.Correct = false
		}
		for _, d := range defs {
			key := d.name
			if len(reps) > 1 {
				key = r.Workload + "/" + d.name
			}
			res.Metrics[key] = jsonMetric{Value: pick(r)[d.name].V, Unit: d.unit}
		}
	}
	return res
}

// printReport writes the human-readable report: run metadata, then every
// metric by name with its unit and sample count.
func printReport(w *os.File, r *report, opt options) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g trace=%v\n", r.Workload, opt.seed, opt.seconds, opt.trace)
	keys := make([]string, 0, len(r.Meta))
	for k := range r.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(r.Meta[k])
		fmt.Fprintf(w, "meta %-18s %s\n", k, b)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  (wrong checksum %d)  failed_frac %.6f\n",
		r.Attempted, r.Failed, r.Wrong, ratio(float64(r.Failed), float64(r.Attempted)))
	section := func(title string, defs []metricDef, vals map[string]value) {
		fmt.Fprintf(w, "-- %s\n", title)
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-34s %14.6g %-6s n=%-7d %s\n", d.name, v.V, d.unit, v.N, v.Note)
		}
	}
	section("end-to-end", append(append([]metricDef(nil), e2eMetrics...), movedTails...), r.E2E)
	if opt.trace {
		section("per-layer (traced run)", layerMetrics, r.Layer)
	}
}

// setTiming stores a median/tail pair under the given metric names.
func setTiming(m map[string]value, p50, tail string, t timing) {
	m[p50] = value{V: t.Median, N: t.N, Note: "median"}
	note := fmt.Sprintf("p%.4g", t.TailP*100)
	if t.Chunks > 0 {
		note = fmt.Sprintf("median of %d per-%d-sample p99s", t.Chunks, tailChunk)
	}
	if t.TailP == 0 {
		note = "max (too few samples for a tail percentile)"
	}
	m[tail] = value{V: t.Tail, N: t.N, Note: note}
}

// timeSetups runs setup n times, tearing down every set-up but the last, and
// stores the median set-up duration as setup_s.
func timeSetups(r *report, n int, setup func(i int) error, teardown func()) error {
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := setup(i); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.E2E["setup_s"] = value{V: median(secs), N: n, Note: "median of set-ups"}
	return nil
}

// addOverhead fills trace_overhead.<metric> = traced − untraced for every
// end-to-end metric measured in both windows.
func addOverhead(r *report, traced map[string]value) {
	for _, d := range e2eMetrics {
		u, ok1 := r.E2E[d.name]
		t, ok2 := traced[d.name]
		if d.name == "setup_s" || !ok1 || !ok2 {
			continue
		}
		r.Layer["trace_overhead."+d.name] = value{V: t.V - u.V, N: t.N, Note: "traced − untraced"}
	}
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru, err := rusage()
	if err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStats captures the Go runtime's allocation and GC counters.
type procStats struct {
	mallocs, bytes uint64
	numGC          uint32
	pauses         []uint64
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC, pauses: append([]uint64(nil), ms.PauseNs[:]...)}
}

// gcDelta reports GC cycles between two captures and the p99 pause (µs) of
// the cycles still in the runtime's 256-entry pause ring.
func gcDelta(a, b procStats) (cycles float64, pauseP99us float64) {
	n := int(b.numGC - a.numGC)
	var ps []float64
	for i := 0; i < n && i < len(b.pauses); i++ {
		idx := (int(b.numGC) - 1 - i + len(b.pauses)) % len(b.pauses)
		ps = append(ps, float64(b.pauses[idx])/1e3)
	}
	return float64(n), summarize(ps, 0.99).Tail
}

// finishWindows runs the untraced window for the end-to-end metrics and,
// with --trace 1, a second window with spans recorded; the difference is the
// tracing overhead. A traced run splits --seconds between its two windows.
// Spans stay in memory until the traced window ends.
func finishWindows(rep *report, opt options, window func(seconds float64, tr *tracer) (map[string]value, error)) (*report, error) {
	seconds := opt.seconds
	if opt.trace {
		seconds /= 2
	}
	e, err := window(seconds, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range e {
		rep.E2E[k] = v
	}
	if opt.trace {
		tr := newTracer()
		te, err := window(seconds, tr)
		if err != nil {
			return nil, err
		}
		addOverhead(rep, te)
		for _, m := range movedTails {
			rep.Layer[m.name] = te[m.name]
		}
		if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(opt.traceDir, fmt.Sprintf("%s-seed%d.jsonl", rep.Workload, opt.seed))
		if err := tr.flush(path, os.Stdout); err != nil {
			return nil, err
		}
		rep.Meta["trace_file"] = path
	}
	rep.Layer["failed_frac"] = value{V: ratio(float64(rep.Failed), float64(rep.Attempted)), N: int(rep.Attempted)}
	return rep, nil
}
