package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gridmon/internal/rgmabin"
	"gridmon/internal/rgmacore"
)

// rgmaRig is an R-GMA binary server with the workload's producer and
// consumer connections, table, producer and consumers in place.
type rgmaRig struct {
	srv        *rgmabin.Server
	prodC      *rgmabin.Client
	consC      *rgmabin.Client
	producer   *rgmabin.RemoteProducer
	latest     *rgmabin.RemoteConsumer
	batchSize  int64
	generators int

	// Push-side state; callbacks run on the consumer connection's reader
	// goroutine.
	mu        sync.Mutex
	checks    []*seqCheck
	rtt       []int64
	winLo     int64 // window tuples are seqs [winLo, winHi)
	winHi     int64
	sendAt    []atomic.Int64 // per batch
	in        *inputs
	tr        *Tracer
	o         *oracle
	drain     *drainer
	subscribe []int64
}

func setupRGMA(w workload, in *inputs, opts runOpts, o *oracle, nBatches int64) (*rgmaRig, error) {
	r := &rgmaRig{
		srv:        rgmabin.NewServer(rgmacore.New(rgmacore.Config{}), rgmabin.Config{}),
		batchSize:  int64(w.batchSize),
		generators: w.generators,
		sendAt:     make([]atomic.Int64, nBatches),
		in:         in,
		tr:         opts.tracer,
		o:          o,
		drain:      newDrainer(),
	}
	addr, err := r.srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if r.prodC, err = rgmabin.Dial(addr); err != nil {
		r.close()
		return nil, fmt.Errorf("dial producer: %w", err)
	}
	if r.consC, err = rgmabin.Dial(addr); err != nil {
		r.close()
		return nil, fmt.Errorf("dial consumer: %w", err)
	}
	if err := r.prodC.CreateTable(tableSQL); err != nil {
		r.close()
		return nil, fmt.Errorf("create table: %w", err)
	}
	if r.producer, err = r.prodC.CreatePrimaryProducer("generator", 30*time.Second, 60*time.Second); err != nil {
		r.close()
		return nil, fmt.Errorf("create producer: %w", err)
	}
	r.checks = make([]*seqCheck, 0, w.siteQueries+1)
	r.subscribe = make([]int64, 0, w.siteQueries+1)
	if err := r.addConsumer("SELECT * FROM generator", &seqCheck{name: "catch-all", step: 1}); err != nil {
		r.close()
		return nil, err
	}
	for g := 0; g < w.siteQueries; g++ {
		c := &seqCheck{name: site(g), next: int64(in.pos[g]), step: int64(w.generators)}
		if err := r.addConsumer(fmt.Sprintf("SELECT * FROM generator WHERE site = '%s'", site(g)), c); err != nil {
			r.close()
			return nil, err
		}
	}
	if r.latest, err = r.consC.CreateConsumer(fmt.Sprintf("SELECT * FROM generator WHERE power > %g", powerCut), "latest", nil); err != nil {
		r.close()
		return nil, fmt.Errorf("create latest consumer: %w", err)
	}
	return r, nil
}

func (r *rgmaRig) addConsumer(query string, c *seqCheck) error {
	r.mu.Lock()
	r.checks = append(r.checks, c)
	r.mu.Unlock()
	t := now()
	_, err := r.consC.CreateConsumer(query, "continuous", func(ts []rgmabin.PoppedTuple) { r.onPush(c, ts) })
	d := now() - t
	if err != nil {
		return fmt.Errorf("create consumer %q: %w", query, err)
	}
	r.mu.Lock()
	r.subscribe = append(r.subscribe, d)
	r.mu.Unlock()
	return nil
}

// parseRow checks a pushed or popped row against the tuple its seq
// column names and returns that seq: the genid, power and site must be
// the ones the generator sent with it.
func (r *rgmaRig) parseRow(row []string) (int64, error) {
	if len(row) != 4 {
		return 0, fmt.Errorf("row has %d cells", len(row))
	}
	seq, err := strconv.ParseInt(row[1], 10, 64)
	if err != nil || seq < 0 || seq >= int64(len(r.sendAt))*r.batchSize {
		return 0, fmt.Errorf("bad seq cell %q", row[1])
	}
	g := r.in.gen(seq)
	power, err := strconv.ParseFloat(row[2], 64)
	if row[0] != strconv.Itoa(g) || err != nil || row[3] != "'"+site(g)+"'" ||
		strconv.FormatFloat(power, 'f', 2, 64) != strconv.FormatFloat(r.in.power(seq), 'f', 2, 64) {
		return 0, fmt.Errorf("row %v is not tuple %d", row, seq)
	}
	return seq, nil
}

func (r *rgmaRig) onPush(c *seqCheck, ts []rgmabin.PoppedTuple) {
	t := now()
	r.mu.Lock()
	for _, tu := range ts {
		seq, err := r.parseRow(tu.Row)
		if err != nil {
			r.o.fail("%s: %v", c.name, err)
			continue
		}
		sp := r.tr.Open("deliver", seq, -1)
		c.observe(r.o, seq)
		if seq >= r.winLo && seq < r.winHi {
			r.rtt = append(r.rtt, t-r.sendAt[seq/r.batchSize].Load())
		}
		r.tr.Close(sp)
	}
	r.mu.Unlock()
	r.drain.add(int64(len(ts)))
}

// checkLatest verifies one latest-query result: at most one row per
// genid, every row above the power cut, and no row older than the
// newest tuple of its generator whose insert had completed before the
// pop was sent (acked is the count of tuples acknowledged by then).
func (r *rgmaRig) checkLatest(rows []rgmabin.PoppedTuple, acked int64) {
	seen := make(map[int]bool, len(rows))
	for _, tu := range rows {
		seq, err := r.parseRow(tu.Row)
		if err != nil {
			r.o.fail("latest pop: %v", err)
			continue
		}
		g := r.in.gen(seq)
		if seen[g] {
			r.o.fail("latest pop: two rows for genid %d", g)
		}
		seen[g] = true
		if r.in.power(seq) <= powerCut {
			r.o.fail("latest pop: row %v has power <= %g", tu.Row, powerCut)
		}
		if n := r.in.expected(g, acked); n > 0 {
			newest := int64(r.in.pos[g]) + (n-1)*int64(r.generators)
			if seq < newest {
				r.o.fail("latest pop: genid %d at seq %d, but seq %d was already acknowledged", g, seq, newest)
			}
		}
	}
}

func (r *rgmaRig) close() {
	if r.prodC != nil {
		_ = r.prodC.Close()
	}
	if r.consC != nil {
		_ = r.consC.Close()
	}
	_ = r.srv.Close()
}

// runRGMA runs the R-GMA workload: batched inserts on the producer
// connection, continuous pushes and latest pops on the consumer one.
func runRGMA(w workload, in *inputs, opts runOpts, o *oracle) (*liveResult, error) {
	rate := w.rate * opts.scale
	bs := int64(w.batchSize)
	period := int64(float64(time.Second) * float64(bs) / rate)
	nWarm := int64(opts.warmup.Seconds() * rate / float64(bs))
	nWin := int64(opts.window.Seconds() * rate / float64(bs))
	if nWin < 1 {
		nWin = 1
	}
	nBatches := nWarm + nWin

	res := &liveResult{}
	t0 := now()
	r, err := setupRGMA(w, in, opts, o, nBatches)
	if err != nil {
		return nil, err
	}
	defer r.close()
	start := now()
	res.setupNs = start - t0
	r.winLo, r.winHi = nWarm*bs, nBatches*bs
	winStart := start + nWarm*period
	end := start + nBatches*period

	nTuples := nBatches * bs
	res.expected = nTuples
	for g := 0; g < w.siteQueries; g++ {
		res.expected += in.expected(g, nTuples)
	}
	r.drain.expect(res.expected)
	winDeliveries := (nBatches - nWarm) * bs
	for g := 0; g < w.siteQueries; g++ {
		winDeliveries += in.expected(g, nTuples) - in.expected(g, nWarm*bs)
	}
	res.late = make([]int64, 0, nWin)
	res.send = make([]int64, 0, nWin)
	r.rtt = make([]int64, 0, winDeliveries)

	var opsAttempted, opsFailed atomic.Int64
	var acked atomic.Int64 // tuples whose InsertBatch returned
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		popPeriod := int64(float64(time.Second) / (w.popRate * opts.scale))
		query := make([]int64, 0, (end-start)/popPeriod+1)
		openLoop(start, popPeriod, end, func(i, due, started int64) {
			a := acked.Load()
			sp := r.tr.Open("rgmabin.pop", a, -1)
			t := now()
			rows, err := r.latest.Pop()
			d := now() - t
			r.tr.Close(sp)
			opsAttempted.Add(1)
			if err != nil {
				opsFailed.Add(1)
				return
			}
			if due >= winStart {
				query = append(query, d)
			}
			r.checkLatest(rows, a)
		})
		r.mu.Lock()
		res.query = query
		r.mu.Unlock()
	}()

	var m0 meter
	var st0 rgmaCounters
	sqls := make([]string, bs)
	perSlice := max(1, int64(rate*sliceSeconds)/bs)
	res.marks = make([]sliceMark, 0, nWin/perSlice+2)
	mark := func() { res.marks = append(res.marks, takeMark(&r.mu, &r.rtt, r.drain)) }
	openLoop(start, period, end, func(b, due, started int64) {
		if b == nWarm {
			st0 = readRGMACounters(r.srv)
			m0 = startMeter()
		}
		if b >= nWarm && (b-nWarm)%perSlice == 0 {
			mark()
		}
		for k := range sqls {
			sqls[k] = in.insertSQL(b*bs + int64(k))
		}
		t := now()
		r.sendAt[b].Store(t)
		sp := r.tr.Open("rgmabin.insert_batch", b*bs, -1)
		err := r.producer.InsertBatch(sqls)
		r.tr.Close(sp)
		d := now() - t
		opsAttempted.Add(1)
		if err != nil {
			opsFailed.Add(1)
		} else {
			acked.Store((b + 1) * bs)
		}
		if b >= nWarm {
			res.late = append(res.late, lateness(due, started))
			res.send = append(res.send, d)
		}
	})
	wg.Wait()
	r.drain.wait(drainDeadline)
	m0.stop(res)
	mark()
	st1 := readRGMACounters(r.srv)

	r.mu.Lock()
	res.rtt = r.rtt
	res.subscribe = r.subscribe
	for _, c := range r.checks {
		res.delivered += c.got
	}
	r.mu.Unlock()
	res.readHeap(len(r.sendAt))
	res.publishes = nWin * bs
	res.deliveries = winDeliveries
	res.opsAttempted = opsAttempted.Load()
	res.opsFailed = opsFailed.Load()
	res.counters = rgmaLayerCounters(st0, st1)
	return res, nil
}
