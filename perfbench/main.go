// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time and prints, as the last line of standard
// output, a JSON object with the run's correctness verdict, how many
// operations it attempted and how many failed, and its metrics: every
// end-to-end metric on an untraced run (--trace 0), every per-layer
// metric on a traced run (--trace 1).
//
//	bash perfbench/run.sh --workload flower-p2000 --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// the reference numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	seed    uint64
	seconds int
	traced  bool
	// workDir holds the run's scratch files (the CPU profile).
	workDir string
}

// benchWorkload is one set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	run  func(opts options) (*result, error)
}

func workloads() []benchWorkload {
	var ws []benchWorkload
	for _, w := range simWorkloads {
		w := w
		ws = append(ws, benchWorkload{name: w.name, run: func(o options) (*result, error) { return runSim(w, o) }})
	}
	return append(ws, benchWorkload{name: "socket-rpc", run: runSocketRPC})
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 10, "how long the run measures, in seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build", "directory for the run's scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
		if w.name != *name {
			continue
		}
		if err := os.MkdirAll(*workDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res, err := w.run(options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, workDir: *workDir})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := res.write(stdout, *traceFlag == 1); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "perfbench: unknown workload %q (one of %s)\n", *name, strings.Join(names, ", "))
	return 2
}

// result is what one run reports.
type result struct {
	attempted, failed uint64
	metrics           map[string]float64
	// problems lists every failed correctness check; notes are
	// informational lines (sample counts, timings) printed before the
	// JSON line.
	problems []string
	notes    []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the notes, then the JSON verdict line. Exactly the
// declared metrics of the run's kind are printed.
func (r *result) write(w io.Writer, traced bool) error {
	declared := endToEndMetrics
	if traced {
		declared = perLayerMetrics()
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range declared {
		v, ok := r.metrics[m.name]
		if !ok {
			r.problem("metric %s was not measured", m.name)
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s is %v", m.name, v)
			v = 0
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for name := range r.metrics {
		if !hasMetric(declared, name) {
			r.problem("metric %s is not declared", name)
		}
	}
	if r.attempted == 0 {
		r.problem("no operation was attempted")
	}
	out.Correct = len(r.problems) == 0
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	sort.Strings(r.problems)
	for _, p := range r.problems {
		fmt.Fprintln(w, "# CHECK FAILED:", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// metricDecl names a metric and its unit.
type metricDecl struct{ name, unit string }

func hasMetric(ms []metricDecl, name string) bool {
	for _, m := range ms {
		if m.name == name {
			return true
		}
	}
	return false
}

// endToEndMetrics are printed by every untraced run. README.md says
// what each means on the sim workloads and on socket-rpc.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_bytes", "bytes"},
	{"live_heap_bytes", "bytes"},
	{"alloc_bytes", "bytes"},
	{"allocs_per_op", "allocs/op"},
	{"lookup_p50_ms", "ms"},
	{"lookup_p99_ms", "ms"},
	{"transfer_p50_ms", "ms"},
	{"tail_hit_ratio", "ratio"},
	{"msgs_per_query", "msgs/op"},
	{"rpc_per_s", "1/s"},
	{"rpc_p50_us", "us"},
	{"rpc_p99_us", "us"},
}

// Seam-traced modules with their handler and callback metrics.
var (
	protocolModules = []string{"chord", "koorde", "gossip", "flower"}
	timerModules    = []string{"churn", "harness"}
	// profileModules have no seam; their CPU comes from a profile.
	// (No workload runs a bounded cache policy, so internal/cache is
	// not among them, and the workload package schedules no
	// callbacks of its own: its layer reports handler metrics only.)
	profileModules = []string{"content", "bloom", "metrics", "ids", "topology", "rnd", "codec", "socknet", "tcp"}
)

// perLayerMetrics are printed by every traced run, named
// <module>.<metric>.
func perLayerMetrics() []metricDecl {
	ms := []metricDecl{
		{"sim.events", "count"},
		{"sim.scheduled", "count"},
		{"sim.cancelled", "count"},
		{"sim.fired_ratio", "ratio"},
		{"sim.pending_max", "count"},
		{"sim.self_s", "s"},
		{"sim.ns_per_event", "ns"},
		{"simnet.sends", "count"},
		{"simnet.requests", "count"},
		{"simnet.delivered", "count"},
		{"simnet.dropped", "count"},
		{"simnet.timeouts", "count"},
		{"simnet.rpc_ok_ratio", "ratio"},
		{"simnet.bytes", "bytes"},
		{"simnet.self_s", "s"},
	}
	for _, m := range protocolModules {
		ms = append(ms,
			metricDecl{m + ".msgs", "count"},
			metricDecl{m + ".handle_s", "s"},
			metricDecl{m + ".timers", "count"},
			metricDecl{m + ".timer_s", "s"})
	}
	for _, m := range timerModules {
		ms = append(ms,
			metricDecl{m + ".timers", "count"},
			metricDecl{m + ".timer_s", "s"})
	}
	ms = append(ms,
		metricDecl{"workload.msgs", "count"},
		metricDecl{"workload.handle_s", "s"},
		metricDecl{"other.self_s", "s"})
	for _, m := range profileModules {
		ms = append(ms, metricDecl{m + ".cpu_s", "s"})
	}
	return append(ms,
		metricDecl{"gc.cycles", "count"},
		metricDecl{"gc.pause_s", "s"},
		metricDecl{"gc.cpu_s", "s"},
		metricDecl{"gc.heap_peak_bytes", "bytes"},
		metricDecl{"socknet.frames_out", "count"},
		metricDecl{"socknet.batches_out", "count"},
		metricDecl{"socknet.frames_per_batch", "count"},
		metricDecl{"socknet.bytes_out", "bytes"},
		metricDecl{"socknet.send_s", "s"},
		metricDecl{"socknet.handle_s", "s"},
		metricDecl{"wallclock.callbacks", "count"},
		metricDecl{"wallclock.late_p50_us", "us"},
		metricDecl{"wallclock.late_p99_us", "us"},
	)
}

// setLayerSpans fills the seam metrics every traced run reports from
// its span aggregates; metrics of layers the workload does not run
// read 0.
func (r *result) setLayerSpans(s *spans) {
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	for _, name := range append(append([]string{}, protocolModules...), timerModules...) {
		l := layerOfPkg(internalPrefix + name)
		r.metrics[name+".timers"] = float64(s.count[kindTimer][l])
		r.metrics[name+".timer_s"] = secs(s.selfNs[kindTimer][l])
	}
	for _, name := range append(append([]string{}, protocolModules...), "workload") {
		l := layerOfPkg(internalPrefix + name)
		r.metrics[name+".msgs"] = float64(s.count[kindHandle][l])
		r.metrics[name+".handle_s"] = secs(s.selfNs[kindHandle][l])
	}
	var other int64
	for k := range s.selfNs {
		other += s.selfNs[k][layerOther]
	}
	r.metrics["other.self_s"] = secs(other)
}

// zeroMetrics sets every named metric the run does not measure to 0.
func (r *result) zeroMetrics(names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
	}
}
