// Command perfbench is gridmon's end-to-end benchmark. It runs one named
// workload against in-process jms.Server or rgmabin.Server instances
// behind real loopback TCP, drives them with the repository's own
// clients, checks every delivery against an arithmetic oracle, and
// prints the metrics BENCHMARK.json defines.
//
//	perfbench --workload monitor --seed 1 --seconds 38 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and traced, replays the generated inputs
// through the broker or R-GMA core in process, and prints the per-layer
// metrics. The last line of standard output is the JSON result; the
// exit code is non-zero when a delivery was wrong, missing, duplicated
// or out of order, or when the run could not complete.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string  // traced run: write spans here
	scale    float64 // rate multiplier, for the smoke tests
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "traced run: write the spans to this file")
	fs.Float64Var(&cfg.scale, "scale", 1, "rate multiplier (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 || cfg.scale <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds and --scale must be positive")
		return 2
	}
	out, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env, _ := json.Marshal(out.env)
	fmt.Fprintf(stdout, "# envelope %s\n", env)
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.result.Correct {
		fmt.Fprintln(stderr, "perfbench: self-check failed:", out.failure)
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	env     envelope
	result  result
	notes   []string
	failure string
}

// End-to-end metrics (--trace 0) and per-layer metrics (--trace 1), by
// name and unit; BENCHMARK.json lists the same names.
var e2eMetrics = [][2]string{
	{"setup_s", "s"},
	{"cpu_norm_us_per_delivery", "us"},
	{"heap_live_mb", "MB"},
}

var layerMetrics = [][2]string{
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.bytes_per_delivery", "B"},
	{"jms.publish_call_us", "us"},
	{"jms.writer_flushes_per_publish", "count"},
	{"jms.writer_frames_per_flush", "count"},
	{"jms.writevs_per_publish", "count"},
	{"jms.socket_reads_per_publish", "count"},
	{"jms.socket_write_us_per_publish", "us"},
	{"broker.publish_self_us", "us"},
	{"broker.ack_us_per_tag", "us"},
	{"broker.subscribe_us", "us"},
	{"broker.shard_lock_wait_us_per_publish", "us"},
	{"broker.shard_lock_contended_ratio", "ratio"},
	{"broker.read_locks_per_publish", "count"},
	{"broker.egress_frames_per_flush", "count"},
	{"broker.delivered_per_publish", "count"},
	{"broker.acked_per_delivery", "ratio"},
	{"broker.dropped", "count"},
	{"selector.evals_per_publish", "count"},
	{"predindex.candidates_per_publish", "count"},
	{"predindex.skipped_per_publish", "count"},
	{"fanout.tasks_per_publish", "count"},
	{"fanout.chunks_per_task", "count"},
	{"fanout.inline_ratio", "ratio"},
	{"rgmabin.insert_batch_us", "us"},
	{"rgmabin.writer_frames_per_flush", "count"},
	{"rgmabin.merged_pushes_per_insert", "count"},
	{"rgmabin.slow_consumer_drops", "count"},
	{"rgmacore.insert_self_us", "us"},
	{"rgmacore.pop_us", "us"},
	{"rgmacore.evals_per_insert", "count"},
	{"rgmacore.candidates_per_insert", "count"},
	{"rgmacore.streamed_per_insert", "count"},
	{"rgmacore.tuples_dropped", "count"},
	{"rgmacore.read_locks_per_insert", "count"},
	{"sqlmini.parse_us_per_insert", "us"},
	{"runtime.alloc_bytes_per_delivery", "B"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.sched_latency_p90_us", "us"},
	{"runtime.mutex_wait_us_per_delivery", "us"},
	{"host.steal_ratio", "ratio"},
	{"host.ref_loop_us", "us"},
	{"loadgen.cpu_us_per_delivery", "us"},
	{"loadgen.rtt_p50_ms", "ms"},
	{"loadgen.rtt_p90_ms", "ms"},
	{"loadgen.rtt_p99_ms", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.send_p50_ms", "ms"},
	{"loadgen.query_p50_ms", "ms"},
	{"loadgen.subscribe_p50_ms", "ms"},
	{"loadgen.failed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// live runs the workload once.
func live(w workload, in *inputs, opts runOpts, o *oracle) (*liveResult, error) {
	if w.rgma {
		return runRGMA(w, in, opts, o)
	}
	return runJMS(w, in, opts, o)
}

// setupOnly times one set-up and tears it down again.
func setupOnly(w workload, in *inputs, opts runOpts, o *oracle) (int64, error) {
	sends := (opts.warmup + opts.window).Seconds() * w.rate * opts.scale
	t := now()
	if w.rgma {
		r, err := setupRGMA(w, in, opts, o, int64(sends)/int64(w.batchSize)+1)
		if err != nil {
			return 0, err
		}
		d := now() - t
		r.close()
		return d, nil
	}
	r, err := setupJMS(w, in, opts, o, int64(sends)+1)
	if err != nil {
		return 0, err
	}
	d := now() - t
	r.close()
	return d, nil
}

func baseOpts(cfg config, window time.Duration) runOpts {
	warmup := time.Second / 2
	if cfg.scale < 1 {
		warmup = 200 * time.Millisecond
	}
	return runOpts{warmup: warmup, window: window, scale: cfg.scale}
}

func measure(cfg config) (*output, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	in := newInputs(w, cfg.seed)
	out := &output{env: newEnvelope()}
	out.env.Workload, out.env.Seed, out.env.Seconds, out.env.Trace = w.name, cfg.seed, cfg.seconds, cfg.trace
	o := &oracle{}
	window := time.Duration(cfg.seconds) * time.Second
	var vals map[string]float64
	var runs []*liveResult
	if cfg.trace {
		vals, runs, out.notes, err = measureLayers(cfg, w, in, o, window)
	} else {
		vals, runs, err = measureE2E(cfg, w, in, o, window)
	}
	if err != nil {
		return nil, err
	}
	out.env.Steal = runs[0].steal

	var missing, opsFailed int64
	for _, r := range runs {
		missing += r.missing()
		opsFailed += r.opsFailed
		out.result.Attempted += r.expected + r.opsAttempted
		out.notes = append(out.notes, fmt.Sprintf("run: %d deliveries expected, %d missing, %d ops, %d failed; %d rtt samples, %d window sends, %d slices",
			r.expected, r.missing(), r.opsAttempted, r.opsFailed, len(r.rtt), r.publishes, max(0, len(r.marks)-1)))
		rtt, cpu := r.sliceMedians()
		out.notes = append(out.notes, fmt.Sprintf("run: slice medians: rtt p50 %.6f ms, %.6f us CPU per delivery; whole window: rtt p50 %.6f ms, %.6f us CPU per delivery; reference loop %.3f us",
			rtt, cpu, ms(median(r.rtt)), ratio(us(r.cpuNs), float64(r.deliveries)), r.refLoopUs()))
		out.notes = append(out.notes, fmt.Sprintf("run: GC CPU share %.4f, %.0f B allocated per delivery, steal %.4f",
			r.rt.gcCPUShare, ratio(r.rt.allocBytes, float64(r.deliveries)), r.steal))
	}
	out.result.Failed = missing + opsFailed
	if cfg.trace {
		vals["loadgen.failed_ratio"] = ratio(float64(out.result.Failed), float64(out.result.Attempted))
	}
	var problems []error
	if err := o.err(); err != nil {
		problems = append(problems, err)
	}
	if missing > 0 {
		problems = append(problems, fmt.Errorf("%d expected deliveries missing at the drain deadline", missing))
	}
	if opsFailed > 0 {
		problems = append(problems, fmt.Errorf("%d operations returned an error", opsFailed))
	}
	out.result.Correct = len(problems) == 0
	if !out.result.Correct {
		out.failure = errors.Join(problems...).Error()
	}

	names := e2eMetrics
	if cfg.trace {
		names = layerMetrics
	}
	out.result.Metrics = make(map[string]metric, len(names))
	for _, nu := range names {
		v, ok := vals[nu[0]]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", nu[0])
		}
		out.result.Metrics[nu[0]] = metric{Value: v, Unit: nu[1]}
		out.notes = append(out.notes, fmt.Sprintf("%-40s %14.6f %s", nu[0], v, nu[1]))
	}
	return out, nil
}

// measureE2E is the untraced run: set-ups that are torn down at once,
// then one set-up, warm-up and window, then more set-ups. setup_s is the
// median of all setupReps set-ups, taken on both sides of the window so
// that a host slowdown at either end of the run moves it less.
// cpu_norm_us_per_delivery is the slice median of CPU per delivery
// scaled by refNominalUs over the run's reference-loop time, so a host
// that runs everything slower for a while moves it less.
func measureE2E(cfg config, w workload, in *inputs, o *oracle, window time.Duration) (map[string]float64, []*liveResult, error) {
	opts := baseOpts(cfg, window)
	setups := make([]int64, 0, setupReps)
	timeSetups := func(n int) error {
		for range n {
			d, err := setupOnly(w, in, opts, o)
			if err != nil {
				return err
			}
			setups = append(setups, d)
		}
		return nil
	}
	if err := timeSetups(setupReps / 2); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	r, err := live(w, in, opts, o)
	if err != nil {
		return nil, nil, err
	}
	setups = append(setups, r.setupNs)
	if err := timeSetups(setupReps - len(setups)); err != nil {
		return nil, nil, err
	}
	_, cpu := r.sliceMedians()
	vals := map[string]float64{
		"setup_s":                  float64(median(setups)) / 1e9,
		"cpu_norm_us_per_delivery": cpu * ratio(refNominalUs, r.refLoopUs()),
		"heap_live_mb":             float64(r.heapLive) / 1e6,
	}
	return vals, []*liveResult{r}, nil
}

// setupReps is how many set-ups an untraced run times.
const setupReps = 11

// median is the nearest-rank p50 of unsorted samples.
func median(xs []int64) int64 { return percentile(sortedCopy(xs), 50) }

// measureLayers is the traced run: half the window untraced (counters
// and the overhead baseline), half traced with counting sockets, then
// the in-process replay and the codec and parser timings.
func measureLayers(cfg config, w workload, in *inputs, o *oracle, window time.Duration) (map[string]float64, []*liveResult, []string, error) {
	half := window / 2
	if half < 500*time.Millisecond {
		half = 500 * time.Millisecond
	}
	// The codec and parser timings run first, on a quiet heap.
	encNs, decNs, deliveryBytes, err := codecCost(w, in, 200*time.Millisecond)
	if err != nil {
		return nil, nil, nil, err
	}
	parseUs := 0.0
	if w.rgma {
		if parseUs, err = parseCost(in, 200*time.Millisecond); err != nil {
			return nil, nil, nil, err
		}
	}
	runtime.GC()
	a, err := live(w, in, baseOpts(cfg, half), o)
	if err != nil {
		return nil, nil, nil, err
	}

	perSend := float64(w.catchAll)
	if w.perGen {
		perSend++
	}
	if w.rgma {
		perSend = 2
	}
	sendsB := (half + time.Second).Seconds() * w.rate * cfg.scale
	nReplay := int64(max(1, 2*w.rate*cfg.scale))
	tr := NewTracer(int((sendsB+float64(nReplay))*(4+2*perSend)) + 20000)
	optsB := baseOpts(cfg, half)
	optsB.tracer = tr
	optsB.wrapSrv = !w.rgma
	b, err := live(w, in, optsB, o)
	if err != nil {
		return nil, nil, nil, err
	}
	if w.rgma {
		err = replayCore(w, in, tr, nReplay)
	} else {
		err = replayBroker(w, in, tr, nReplay)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if cfg.spans != "" {
		if err := tr.WriteTSV(cfg.spans); err != nil {
			return nil, nil, nil, fmt.Errorf("write spans: %w", err)
		}
	}
	spans := tr.Spans()
	sp := summarize(spans)

	vals := map[string]float64{}
	for _, nu := range layerMetrics {
		vals[nu[0]] = 0
	}
	for k, v := range a.counters {
		vals[k] = v
	}
	rttA := sortedCopy(a.rtt)
	cpuA := ratio(us(a.cpuNs), float64(a.deliveries))
	cpuB := ratio(us(b.cpuNs), float64(b.deliveries))
	vals["wire.encode_ns_per_frame"] = encNs
	vals["wire.decode_ns_per_frame"] = decNs
	vals["wire.bytes_per_delivery"] = deliveryBytes
	vals["sqlmini.parse_us_per_insert"] = parseUs
	vals["runtime.alloc_bytes_per_delivery"] = ratio(a.rt.allocBytes, float64(a.deliveries))
	vals["runtime.gc_cpu_share"] = a.rt.gcCPUShare
	vals["runtime.sched_latency_p90_us"] = a.rt.schedP90Ns / 1e3
	vals["runtime.mutex_wait_us_per_delivery"] = ratio(a.rt.mutexWaitNs/1e3, float64(a.deliveries))
	vals["host.steal_ratio"] = a.steal
	vals["host.ref_loop_us"] = a.refLoopUs()
	vals["loadgen.rtt_p50_ms"], vals["loadgen.cpu_us_per_delivery"] = a.sliceMedians()
	tail := tailPercentile(len(rttA), 10)
	vals["loadgen.rtt_p90_ms"] = ms(percentile(rttA, 90))
	vals["loadgen.rtt_p99_ms"] = ms(percentile(rttA, tail))
	vals["loadgen.late_p90_ms"] = ms(percentile(sortedCopy(a.late), 90))
	vals["loadgen.send_p50_ms"] = ms(median(a.send))
	vals["loadgen.query_p50_ms"] = ms(median(a.query))
	vals["loadgen.subscribe_p50_ms"] = ms(median(a.subscribe))
	vals["trace.overhead_ratio"] = ratio(cpuB, cpuA) - 1

	// One pass through each traced layer on a delivery's path; the rest
	// of the median RTT (loopback, wake-ups, queueing behind the other
	// deliveries of the same send) is unattributed.
	codec := (encNs + 2*decNs) / 1e3
	var path float64
	if w.rgma {
		ins := sp["rgmacore.insert"]
		vals["rgmacore.insert_self_us"] = ins.meanSelfUs()
		vals["rgmacore.pop_us"] = sp["rgmacore.pop"].meanSelfUs()
		vals["rgmabin.insert_batch_us"] = sp["rgmabin.insert_batch"].meanSelfUs()
		path = ins.meanSelfUs() + ratio(us(childSelfNs(spans, "rgmacore.insert", "rgmacore.sink")), float64(ins.n)) +
			codec + sp["deliver"].meanSelfUs()
	} else {
		pub := sp["broker.publish"]
		vals["jms.publish_call_us"] = sp["jms.publish"].meanSelfUs()
		vals["broker.publish_self_us"] = pub.meanSelfUs()
		vals["broker.ack_us_per_tag"] = sp["broker.ack"].meanSelfUs()
		vals["broker.subscribe_us"] = sp["broker.subscribe"].meanSelfUs()
		vals["jms.socket_reads_per_publish"] = ratio(float64(b.sockReads), float64(b.publishes))
		vals["jms.socket_write_us_per_publish"] = ratio(us(b.sockWriteNs), float64(b.publishes))
		path = sp["jms.publish"].meanSelfUs() + pub.meanSelfUs() +
			ratio(us(childSelfNs(spans, "broker.publish", "broker.send")), float64(pub.n)) + codec + sp["deliver"].meanSelfUs()
	}
	vals["trace.unattributed_share"] = 1 - ratio(path, us(percentile(rttA, 50)))

	names := make([]string, 0, len(sp))
	for n := range sp {
		names = append(names, n)
	}
	slices.Sort(names)
	notes := []string{fmt.Sprintf("loadgen.rtt_p99_ms is the p%g of %d samples", tail, len(rttA))}
	for _, n := range names {
		notes = append(notes, fmt.Sprintf("span %-22s n=%-8d mean self %.3f us", n, sp[n].n, sp[n].meanSelfUs()))
	}
	if d := tr.dropped; d > 0 {
		notes = append(notes, fmt.Sprintf("%d spans dropped: tracer buffer full", d))
	}
	return vals, []*liveResult{a, b}, notes, nil
}
