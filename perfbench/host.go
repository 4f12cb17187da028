package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// cpuNs is the process's user+system CPU time so far (getrusage).
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// refLoopSteps is the length of the reference loop refLoopNs times.
const refLoopSteps = 20000

// refLoopNs times a fixed integer loop that shares no code with the
// program: the best of three passes of refLoopSteps splitmix steps. A
// live run times it at every slice mark, so host.ref_loop_us labels how
// fast the host ran that run, as host.steal_ratio labels how much of it
// the hypervisor took.
func refLoopNs() int64 {
	best := int64(math.MaxInt64)
	for range 3 {
		t := now()
		x := uint64(t)
		for range refLoopSteps {
			x = splitmix(x)
		}
		d := now() - t
		refSink.Store(x)
		best = min(best, d)
	}
	return best
}

// refNominalUs is the reference loop's time on the 2-vCPU host the
// benchmark was tuned on. Any fixed value would do: it only sets the
// scale of cpu_norm_us_per_delivery, which compares runs made with the
// same value.
const refNominalUs = 100.0

// refSink keeps the reference loop's result live.
var refSink atomic.Uint64

// stealSample is the host-wide CPU jiffies from /proc/stat's first line:
// total and the share a hypervisor stole.
type stealSample struct{ total, steal uint64 }

func readSteal() stealSample {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return stealSample{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealSample{}
	}
	var s stealSample
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so stop at steal.
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// stealRatio is the share of host CPU time stolen between two samples.
func stealRatio(a, b stealSample) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// envelope labels a run with what it ran on, so figures from a noisy or
// differently sized host are recognisable.
type envelope struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Steal      float64 `json:"host_steal_ratio"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// buildCommit is the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository checkout.
func buildCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func newEnvelope() envelope {
	return envelope{
		Commit:     buildCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
	}
}

// rtSample is a snapshot of the Go runtime metrics the per-layer report
// uses.
type rtSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	idleCPU    float64
	mutexWait  float64
	sched      *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return rtSample{
		allocBytes: ss[0].Value.Uint64(),
		gcCPU:      ss[1].Value.Float64(),
		totalCPU:   ss[2].Value.Float64(),
		idleCPU:    ss[3].Value.Float64(),
		mutexWait:  ss[4].Value.Float64(),
		sched:      ss[5].Value.Float64Histogram(),
	}
}

// heapLiveBytes forces a collection and reads the live heap it left.
func heapLiveBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rtDelta is the runtime activity between two samples.
type rtDelta struct {
	allocBytes  float64
	gcCPUShare  float64
	mutexWaitNs float64
	schedP90Ns  float64
}

func runtimeDelta(a, b rtSample) rtDelta {
	d := rtDelta{
		allocBytes:  float64(b.allocBytes - a.allocBytes),
		gcCPUShare:  ratio(b.gcCPU-a.gcCPU, (b.totalCPU-a.totalCPU)-(b.idleCPU-a.idleCPU)),
		mutexWaitNs: (b.mutexWait - a.mutexWait) * 1e9,
	}
	// Scheduling latency: p90 of the histogram delta, reported at the
	// upper edge of the bucket holding it.
	counts := make([]uint64, len(b.sched.Counts))
	var n uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		n += counts[i]
	}
	if n == 0 {
		return d
	}
	target := uint64(float64(n)*0.9 + 0.5)
	var run uint64
	for i, c := range counts {
		run += c
		if run >= target {
			d.schedP90Ns = b.sched.Buckets[i+1] * 1e9
			break
		}
	}
	return d
}
