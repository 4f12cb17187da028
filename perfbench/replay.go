package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gridmon/internal/broker"
	"gridmon/internal/gridgen"
	"gridmon/internal/message"
	"gridmon/internal/rgma"
	"gridmon/internal/rgmacore"
	"gridmon/internal/sim"
	"gridmon/internal/wire"
)

// The replays drive one layer's public API in process, with the same
// generated inputs as the live run, so each call into the layer gets a
// span and each call back out of it (Env.Send, a Sink) a child span.
// The difference is the layer's self time, free of sockets and clients.

// replayEnv is a concurrency-safe broker.Env: the parallel fan-out
// engine calls Send from its workers. It consumes pooled frames the way
// a transport does (release exactly once) and keeps the delivery tags
// the subscriber would acknowledge.
type replayEnv struct {
	tr     *Tracer
	parent atomic.Int32 // span of the OnFrame call in progress
	req    atomic.Int64

	mu   sync.Mutex
	acks []wire.Ack
}

func (e *replayEnv) Now() int64 { return now() }

func (e *replayEnv) Send(_ broker.ConnID, f wire.Frame) {
	sp := e.tr.Open("broker.send", e.req.Load(), e.parent.Load())
	switch d := f.(type) {
	case *wire.Deliver:
		e.mu.Lock()
		e.acks = append(e.acks, wire.Ack{SubID: d.SubID, Tags: []int64{d.Tag}})
		e.mu.Unlock()
		wire.PutDeliver(d)
	case *wire.DeliverBatch:
		e.mu.Lock()
		for _, en := range d.Entries {
			e.acks = append(e.acks, wire.Ack{SubID: en.SubID, Tags: []int64{en.Tag}})
		}
		e.mu.Unlock()
		wire.PutDeliverBatch(d)
	}
	e.tr.Close(sp)
}

func (e *replayEnv) CloseConn(broker.ConnID) {}
func (e *replayEnv) AllocConn() error        { return nil }
func (e *replayEnv) FreeConn()               {}
func (e *replayEnv) Alloc(int64) error       { return nil }
func (e *replayEnv) Free(int64)              {}

// frame runs one OnFrame call as a root span.
func (e *replayEnv) frame(b *broker.Broker, id broker.ConnID, f wire.Frame, name string, req int64) {
	sp := e.tr.Open(name, req, -1)
	e.parent.Store(sp)
	e.req.Store(req)
	b.OnFrame(id, f)
	e.tr.Close(sp)
}

// replayBroker replays the workload's subscriptions, nPub publishes
// and every resulting
// acknowledgement through a broker configured as jms.NewServer
// configures it.
func replayBroker(w workload, in *inputs, tr *Tracer, nPub int64) error {
	env := &replayEnv{tr: tr}
	cfg := broker.DefaultConfig("naradad")
	cfg.Shards = runtime.GOMAXPROCS(0)
	b := broker.New(env, cfg)
	const pubConn, subConn broker.ConnID = 1, 2
	for _, id := range []broker.ConnID{pubConn, subConn} {
		if err := b.OnConnOpen(id); err != nil {
			return fmt.Errorf("replay: open conn: %w", err)
		}
		b.OnFrame(id, wire.Connect{ClientID: "replay"})
	}
	topic := message.Topic(topicName)
	subID := int64(0)
	subscribe := func(sel string) {
		subID++
		env.frame(b, subConn, wire.Subscribe{SubID: subID, Dest: topic, Selector: sel, AckMode: message.AutoAck}, "broker.subscribe", 0)
	}
	for i := 0; i < w.catchAll; i++ {
		subscribe(gridgen.PaperSelector)
	}
	if w.perGen {
		for g := 0; g < w.generators; g++ {
			subscribe(fmt.Sprintf("id = %d", g))
		}
	}
	for s := int64(0); s < nPub; s++ {
		m := gridgen.MonitoringMessage(in.gen(s), s)
		m.Dest = topic
		m.Timestamp = now()
		m.ID = fmt.Sprintf("ID:replay/%d", s)
		env.frame(b, pubConn, wire.Publish{Seq: s + 1, Msg: m}, "broker.publish", s)
		env.mu.Lock()
		acks := env.acks
		env.acks = nil
		env.mu.Unlock()
		for _, a := range acks {
			env.frame(b, subConn, a, "broker.ack", s)
		}
	}
	return nil
}

// replayCore replays the R-GMA workload's consumers, nIns inserts and a
// latest pop per popEvery inserts into an rgmacore.Core; each Insert is
// a span and each push-sink callback its child.
func replayCore(w workload, in *inputs, tr *Tracer, nIns int64) error {
	core := rgmacore.New(rgmacore.Config{})
	if _, err := core.CreateTable(tableSQL); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	p, err := core.CreateProducer("generator", 30*sim.Second, 60*sim.Second)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	var parent atomic.Int32
	var req atomic.Int64
	sink := func(_ int64, st *rgmacore.Streamed) {
		sp := tr.Open("rgmacore.sink", req.Load(), parent.Load())
		st.Encoded(func(t rgmacore.PopTuple) []byte {
			return wire.AppendRGMATuple(nil, wire.RGMATuple{Row: t.Row, InsertedAt: t.InsertedAt})
		})
		tr.Close(sp)
	}
	if _, err := core.CreateConsumer("SELECT * FROM generator", rgma.ContinuousQuery, sink); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for g := 0; g < w.siteQueries; g++ {
		if _, err := core.CreateConsumer(fmt.Sprintf("SELECT * FROM generator WHERE site = '%s'", site(g)), rgma.ContinuousQuery, sink); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	latest, err := core.CreateConsumer(fmt.Sprintf("SELECT * FROM generator WHERE power > %g", powerCut), rgma.LatestQuery, nil)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	popEvery := int64(w.rate / w.popRate)
	for s := int64(0); s < nIns; s++ {
		sql := in.insertSQL(s)
		sp := tr.Open("rgmacore.insert", s, -1)
		parent.Store(sp)
		req.Store(s)
		err := core.Insert(p.ID(), sql)
		tr.Close(sp)
		if err != nil {
			return fmt.Errorf("replay insert: %w", err)
		}
		if s%popEvery == popEvery-1 {
			sp := tr.Open("rgmacore.pop", s, -1)
			_, err := core.Pop(latest.ID())
			tr.Close(sp)
			if err != nil {
				return fmt.Errorf("replay pop: %w", err)
			}
		}
	}
	return nil
}
