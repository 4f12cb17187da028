package main

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gridmon/internal/gridgen"
	"gridmon/internal/jms"
	"gridmon/internal/message"
)

// jmsRig is a broker server with the workload's two client connections
// and subscriptions in place.
type jmsRig struct {
	srv      *jms.Server
	pub, sub *jms.Connection
	sock     *sockStats

	// Delivery-side state. Callbacks run on the subscriber connection's
	// reader goroutine; mu orders them with the main goroutine's reads.
	mu        sync.Mutex
	checks    []*seqCheck
	rtt       []int64
	winLo     int64 // window sends are sequence numbers [winLo, winHi)
	winHi     int64
	sendAt    []atomic.Int64
	in        *inputs
	tr        *Tracer
	o         *oracle
	drain     *drainer
	subscribe []int64
}

// setupJMS starts a server behind a loopback listener, dials the
// publisher and subscriber connections and subscribes. It returns once
// the workload can send its first message.
func setupJMS(w workload, in *inputs, opts runOpts, o *oracle, nSends int64) (*jmsRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &jmsRig{in: in, tr: opts.tracer, o: o, drain: newDrainer(), sendAt: make([]atomic.Int64, nSends)}
	var srvLn net.Listener = ln
	if opts.wrapSrv {
		r.sock = &sockStats{}
		srvLn = countingListener{Listener: ln, st: r.sock}
	}
	r.srv = jms.NewServer(srvLn, jms.ServerConfig{})
	if r.pub, err = jms.Dial(r.srv.Addr(), "perfbench-pub"); err != nil {
		r.close()
		return nil, fmt.Errorf("dial publisher: %w", err)
	}
	if r.sub, err = jms.Dial(r.srv.Addr(), "perfbench-sub"); err != nil {
		r.close()
		return nil, fmt.Errorf("dial subscriber: %w", err)
	}
	nSubs := w.catchAll
	if w.perGen {
		nSubs += w.generators
	}
	r.checks = make([]*seqCheck, 0, nSubs)
	r.subscribe = make([]int64, 0, nSubs)
	for i := 0; i < w.catchAll; i++ {
		if err := r.addSub(gridgen.PaperSelector, &seqCheck{name: fmt.Sprintf("catch-all %d", i), step: 1}); err != nil {
			r.close()
			return nil, err
		}
	}
	if w.perGen {
		for g := 0; g < w.generators; g++ {
			c := &seqCheck{name: fmt.Sprintf("id = %d", g), next: int64(in.pos[g]), step: int64(w.generators)}
			if err := r.addSub(fmt.Sprintf("id = %d", g), c); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	// Barrier: broker.subscribeTopic sends SubOK before its deferred
	// routing-snapshot refresh runs, so a publish sent on another
	// connection right after Subscribe returns can miss the newest
	// subscription (seen here as "catch-all 999: got seq 1, want 0" on
	// fanout). The server handles one connection's frames in order, so
	// once a Ping on the subscriber connection answers, every snapshot
	// its subscribes built is published.
	if err := r.sub.Ping(); err != nil {
		r.close()
		return nil, fmt.Errorf("subscriber ping: %w", err)
	}
	return r, nil
}

// addSub subscribes on the subscriber connection and times the round
// trip.
func (r *jmsRig) addSub(selector string, c *seqCheck) error {
	r.mu.Lock()
	r.checks = append(r.checks, c)
	r.mu.Unlock()
	sp := r.tr.Open("jms.subscribe", 0, -1)
	t := now()
	_, err := r.sub.Subscribe(message.Topic(topicName), selector, func(m *message.Message) { r.onDeliver(c, m) })
	d := now() - t
	r.tr.Close(sp)
	if err != nil {
		return fmt.Errorf("subscribe %q: %w", selector, err)
	}
	r.mu.Lock()
	r.subscribe = append(r.subscribe, d)
	r.mu.Unlock()
	return nil
}

func (r *jmsRig) onDeliver(c *seqCheck, m *message.Message) {
	t := now()
	v, ok := m.MapGet("seq")
	seq, err := v.AsLong()
	if !ok || err != nil || seq < 0 || seq >= int64(len(r.sendAt)) {
		r.o.fail("%s: delivery without a valid seq field", c.name)
		return
	}
	if id, _ := m.Property("id"); id.AsString() != strconv.Itoa(r.in.gen(seq)) {
		r.o.fail("%s: seq %d carries id %s, want %d", c.name, seq, id.AsString(), r.in.gen(seq))
	}
	sp := r.tr.Open("deliver", seq, -1)
	r.mu.Lock()
	c.observe(r.o, seq)
	if seq >= r.winLo && seq < r.winHi {
		r.rtt = append(r.rtt, t-r.sendAt[seq].Load())
	}
	r.mu.Unlock()
	r.tr.Close(sp)
	r.drain.add(1)
}

func (r *jmsRig) close() {
	if r.pub != nil {
		_ = r.pub.Close()
	}
	if r.sub != nil {
		_ = r.sub.Close()
	}
	r.srv.Close()
}

// runJMS runs one JMS workload: set up, warm up, measure the window,
// drain, and check every delivery.
func runJMS(w workload, in *inputs, opts runOpts, o *oracle) (*liveResult, error) {
	rate := w.rate * opts.scale
	period := int64(float64(time.Second) / rate)
	nWarm := int64(opts.warmup.Seconds() * rate)
	nWin := int64(opts.window.Seconds() * rate)
	if nWin < 1 {
		nWin = 1
	}
	nSends := nWarm + nWin

	res := &liveResult{}
	t0 := now()
	r, err := setupJMS(w, in, opts, o, nSends)
	if err != nil {
		return nil, err
	}
	defer r.close()
	start := now()
	res.setupNs = start - t0
	r.winLo, r.winHi = nWarm, nSends
	end := start + nSends*period

	perMsg := int64(w.catchAll)
	if w.perGen {
		perMsg++
	}
	res.expected = nSends * perMsg
	r.drain.expect(res.expected)
	res.late = make([]int64, 0, nWin)
	res.send = make([]int64, 0, nWin)
	r.rtt = make([]int64, 0, nWin*perMsg)

	var opsAttempted, opsFailed atomic.Int64

	// The publisher is the calling goroutine: the workload's only
	// generator.
	var m0 meter
	var st0 brokerCounters
	var reads0, writeNs0 int64
	begin := func() {
		st0 = readBrokerCounters(r.srv)
		if r.sock != nil {
			reads0, writeNs0 = r.sock.reads.Load(), r.sock.writeNs.Load()
		}
		m0 = startMeter()
	}
	perSlice := max(1, int64(rate*sliceSeconds))
	res.marks = make([]sliceMark, 0, nWin/perSlice+2)
	mark := func() { res.marks = append(res.marks, takeMark(&r.mu, &r.rtt, r.drain)) }
	openLoop(start, period, end, func(i, due, started int64) {
		if i == nWarm {
			begin()
		}
		if i >= nWarm && (i-nWarm)%perSlice == 0 {
			mark()
		}
		msg := gridgen.MonitoringMessage(in.gen(i), i)
		msg.Dest = message.Topic(topicName)
		t := now()
		r.sendAt[i].Store(t)
		sp := r.tr.Open("jms.publish", i, -1)
		err := r.pub.Publish(msg)
		r.tr.Close(sp)
		d := now() - t
		opsAttempted.Add(1)
		if err != nil {
			opsFailed.Add(1)
		}
		if i >= nWarm {
			res.late = append(res.late, lateness(due, started))
			res.send = append(res.send, d)
		}
	})
	r.drain.wait(drainDeadline)
	m0.stop(res)
	mark()
	st1 := readBrokerCounters(r.srv)
	if r.sock != nil {
		res.sockReads = r.sock.reads.Load() - reads0
		res.sockWriteNs = r.sock.writeNs.Load() - writeNs0
	}

	r.mu.Lock()
	res.rtt = r.rtt
	res.subscribe = r.subscribe
	for _, c := range r.checks {
		res.delivered += c.got
	}
	r.mu.Unlock()
	res.readHeap(len(r.sendAt))
	res.publishes = nWin
	res.deliveries = nWin * perMsg
	res.opsAttempted = opsAttempted.Load()
	res.opsFailed = opsFailed.Load()
	res.counters = jmsLayerCounters(st0, st1)
	return res, nil
}
