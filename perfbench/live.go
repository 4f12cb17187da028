package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// runOpts shapes one live run.
type runOpts struct {
	warmup  time.Duration // sends before the window: checked, not timed
	window  time.Duration // measured window
	scale   float64       // rate multiplier; 1 outside the smoke tests
	tracer  *Tracer       // nil: untraced
	wrapSrv bool          // count server socket calls (traced run only)
}

// liveResult is everything one live run measured.
type liveResult struct {
	setupNs int64

	rtt   []int64 // per delivery of a window send: send stamp → callback
	late  []int64 // per window send: start − due
	send  []int64 // producer call: Publish, or InsertBatch → RGMAOK
	query []int64 // latest Pop round trip (rgma only)
	// Subscribe → SubOK, or continuous CreateConsumer → OK, at set-up.
	subscribe []int64

	cpuNs      int64 // process CPU from window start to drain
	deliveries int64 // deliveries of window sends
	publishes  int64 // window sends (messages, or tuples)
	heapLive   uint64
	rt         rtDelta
	steal      float64
	// Server socket calls during the window (traced JMS run only).
	sockReads, sockWriteNs int64

	expected, delivered int64 // every delivery of the run, warm-up included
	opsAttempted        int64
	opsFailed           int64

	counters map[string]float64

	// marks cut the window into slices of sliceSeconds of sends, at the
	// send that opens each slice; the last mark follows the drain.
	marks []sliceMark
}

// sliceSeconds is the length of one slice of the measured window.
const sliceSeconds = 1

// sliceMark is the state of a live run where one slice ends and the
// next begins.
type sliceMark struct {
	cpu       int64 // process CPU so far
	delivered int64 // deliveries so far, warm-up included
	rttN      int   // RTT samples so far
	refNs     int64 // refLoopNs at the mark
}

// takeMark reads a live run's state at a slice boundary; mu guards rtt,
// which the delivery callbacks append to.
func takeMark(mu *sync.Mutex, rtt *[]int64, d *drainer) sliceMark {
	mu.Lock()
	n := len(*rtt)
	mu.Unlock()
	return sliceMark{cpu: cpuNs(), delivered: d.delivered.Load(), rttN: n, refNs: refLoopNs()}
}

// sliceMedians gives a run's RTT p50 (loadgen.rtt_p50_ms) and CPU per
// delivery (loadgen.cpu_us_per_delivery, which cpu_norm_us_per_delivery
// scales): the median, over the window's slices, of each slice's median
// RTT and of its CPU per delivery. A slice holds the
// deliveries that arrived in it. A burst of host load then moves only
// the slices it covers, and a minority of slices cannot move the
// median far.
func (r *liveResult) sliceMedians() (rttMs, cpuUs float64) {
	var rtts, cpus []float64
	for k := 1; k < len(r.marks); k++ {
		a, b := r.marks[k-1], r.marks[k]
		if b.rttN > a.rttN {
			rtts = append(rtts, ms(median(r.rtt[a.rttN:b.rttN])))
		}
		if b.delivered > a.delivered {
			cpus = append(cpus, us(b.cpu-a.cpu)/float64(b.delivered-a.delivered))
		}
	}
	return medianFloat(rtts), medianFloat(cpus)
}

// refLoopUs is the median over the run's marks of refLoopNs, in µs.
func (r *liveResult) refLoopUs() float64 {
	refs := make([]float64, len(r.marks))
	for i, m := range r.marks {
		refs[i] = us(m.refNs)
	}
	return medianFloat(refs)
}

// readHeap sets heapLive to the live heap less the run's own sample
// buffers, including the per-send stamps (sendStamps of them), which
// grow with the run length and not with the program. Call it with the
// run's servers and clients still open and its sample slices in place.
func (r *liveResult) readHeap(sendStamps int) {
	own := 8*uint64(sendStamps+cap(r.rtt)+cap(r.late)+cap(r.send)+cap(r.query)+cap(r.subscribe)) +
		uint64(cap(r.marks))*uint64(unsafe.Sizeof(sliceMark{}))
	live := heapLiveBytes()
	if live > own {
		r.heapLive = live - own
	}
}

// missing is how many expected deliveries never arrived.
func (r *liveResult) missing() int64 {
	if r.delivered >= r.expected {
		return 0
	}
	return r.expected - r.delivered
}

// oracle collects violations of the delivery contract: a wrong,
// duplicate or reordered delivery. Any violation fails the run.
type oracle struct {
	bad   atomic.Int64
	mu    sync.Mutex
	first string
}

func (o *oracle) fail(format string, args ...any) {
	if o.bad.Add(1) == 1 {
		o.mu.Lock()
		o.first = fmt.Sprintf(format, args...)
		o.mu.Unlock()
	}
}

func (o *oracle) err() error {
	if o.bad.Load() == 0 {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return fmt.Errorf("%d delivery violations; first: %s", o.bad.Load(), o.first)
}

// seqCheck follows one subscription's expected stream: sequence numbers
// next, next+step, next+2*step, ... each exactly once, in order.
type seqCheck struct {
	name       string
	next, step int64
	got        int64
}

func (c *seqCheck) observe(o *oracle, s int64) {
	if s != c.next {
		o.fail("%s: got seq %d, want %d (step %d)", c.name, s, c.next, c.step)
		return
	}
	c.next += c.step
	c.got++
}

// drainer lets the delivery callbacks signal the main goroutine once the
// expected count has arrived, so the drain wait blocks on a channel
// instead of polling.
type drainer struct {
	delivered atomic.Int64
	target    atomic.Int64
	once      sync.Once
	done      chan struct{}
}

func newDrainer() *drainer {
	d := &drainer{done: make(chan struct{})}
	d.target.Store(1 << 62)
	return d
}

func (d *drainer) add(n int64) {
	if d.delivered.Add(n) >= d.target.Load() {
		d.once.Do(func() { close(d.done) })
	}
}

// expect sets the target; it may already have been reached.
func (d *drainer) expect(n int64) {
	d.target.Store(n)
	if d.delivered.Load() >= n {
		d.once.Do(func() { close(d.done) })
	}
}

// drainDeadline is how long after the last send a run waits for the
// deliveries still expected; any still missing then count as failed.
const drainDeadline = 20 * time.Second

// wait blocks until the target arrived or the deadline passed.
func (d *drainer) wait(deadline time.Duration) {
	t := time.NewTimer(deadline)
	defer t.Stop()
	select {
	case <-d.done:
	case <-t.C:
	}
}

// meter samples process-wide resources at the window's start and end.
type meter struct {
	cpu   int64
	rt    rtSample
	steal stealSample
}

func startMeter() meter { return meter{cpu: cpuNs(), rt: readRuntime(), steal: readSteal()} }

func (m meter) stop(r *liveResult) {
	r.cpuNs = cpuNs() - m.cpu
	r.rt = runtimeDelta(m.rt, readRuntime())
	r.steal = stealRatio(m.steal, readSteal())
}

// sockStats counts a server's socket calls. It exists only in the
// traced run, where a counting listener wraps the broker's.
type sockStats struct {
	reads, writeNs atomic.Int64
}

type countingListener struct {
	net.Listener
	st *sockStats
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, st: l.st}, nil
}

// countingConn does not implement the vectored-write interface, so a
// writev degrades to one Write per buffer here; the workloads' frames
// stay below the size that would use writev (jms.writevs_per_publish
// confirms it).
type countingConn struct {
	net.Conn
	st *sockStats
}

func (c countingConn) Read(p []byte) (int, error) {
	c.st.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	t := now()
	n, err := c.Conn.Write(p)
	c.st.writeNs.Add(now() - t)
	return n, err
}
