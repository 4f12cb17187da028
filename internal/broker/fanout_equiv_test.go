package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Fan-out equivalence: the engine promises that for any single caller,
// per-subscription delivery sequences and every counter the reference
// model specifies are the same whether a fan-out runs as the inline
// per-frame loop or as per-connection runs across the worker pool. The
// storm drives randomized subscribe/publish/ack/unsubscribe/
// connection-churn traffic through the reference model and the chosen
// production variants — same seed, same ops — and compares them.

// fanoutStormSelectors gives the storm a mix of fast-set and selector
// subscriptions, so plans mix fast members with group members.
var fanoutStormSelectors = []string{"", "", "id < 500", "id >= 300", "region = 'eu'"}

// runFanoutEquivalence drives the deterministic fan-out storm through
// the reference model and the given variants. Conns 1..6 are
// subscribers; conn 100 publishes.
func runFanoutEquivalence(t *testing.T, variants []variant) {
	t.Helper()
	for seed := int64(1); seed <= 5; seed++ {
		rig := newSpecRig(DefaultConfig("fanstorm"), variants)
		const nConns = 6
		rng := rand.New(rand.NewSource(seed))
		topics := []string{"t0", "t1", "t2"}
		open := make(map[ConnID]bool)
		openConn := func(c ConnID) {
			rig.do(func(b brokerAPI) {
				if err := b.OnConnOpen(c); err != nil {
					t.Fatal(err)
				}
			})
			open[c] = true
		}
		ackAll := func(c ConnID) {
			for _, a := range rig.ref.out.takeAcks(c, 0) {
				rig.do(func(b brokerAPI) { b.OnFrame(c, a) })
			}
		}
		for c := ConnID(1); c <= nConns; c++ {
			openConn(c)
		}
		openConn(100)
		type subRef struct {
			conn ConnID
			id   int64
		}
		var subs []subRef
		nextSub := int64(0)

		for op := 0; op < 900; op++ {
			switch k := rng.Intn(10); {
			case k < 4: // subscribe
				c := ConnID(rng.Intn(nConns) + 1)
				if !open[c] {
					continue
				}
				nextSub++
				f := wire.Subscribe{
					SubID:    nextSub,
					Dest:     message.Topic(topics[rng.Intn(len(topics))]),
					Selector: fanoutStormSelectors[rng.Intn(len(fanoutStormSelectors))],
				}
				rig.do(func(b brokerAPI) { b.OnFrame(c, f) })
				subs = append(subs, subRef{conn: c, id: nextSub})
			case k < 8: // publish + ack feedback
				id := fmt.Sprintf("ID:storm/%d", op)
				dest := message.Topic(topics[rng.Intn(len(topics))])
				props := map[string]message.Value{
					"id":     message.Int(int32(rng.Intn(1000))),
					"region": message.String([]string{"eu", "us"}[rng.Intn(2)]),
				}
				rig.do(func(b brokerAPI) { publishOn(b, 100, id, dest, props) })
				if rng.Intn(3) == 0 {
					for c := ConnID(1); c <= nConns; c++ {
						if open[c] {
							ackAll(c)
						}
					}
				}
			case k < 9: // unsubscribe a random live subscription
				if len(subs) == 0 {
					continue
				}
				i := rng.Intn(len(subs))
				s := subs[i]
				subs = append(subs[:i], subs[i+1:]...)
				if open[s.conn] {
					rig.do(func(b brokerAPI) { b.OnFrame(s.conn, wire.Unsubscribe{SubID: s.id}) })
				}
			default: // bounce a connection (subs drop, deliveries stop)
				c := ConnID(rng.Intn(nConns) + 1)
				if !open[c] {
					openConn(c)
					continue
				}
				ackAll(c)
				rig.do(func(b brokerAPI) { b.OnConnClose(c) })
				open[c] = false
				kept := subs[:0]
				for _, s := range subs {
					if s.conn != c {
						kept = append(kept, s)
					}
				}
				subs = kept
			}
		}
		// Quiesce: feed every outstanding ack back.
		for c := ConnID(1); c <= nConns; c++ {
			if open[c] {
				ackAll(c)
			}
		}
		rig.check(t, fmt.Sprintf("seed %d", seed))
	}
}

// TestFanoutSerialParallelEquivalenceRandomized pins the headline
// contract: the inline loop of a serial Env and the parallel engine
// forced through the pool for every fan-out (threshold 1) both match
// the reference model.
func TestFanoutSerialParallelEquivalenceRandomized(t *testing.T) {
	runFanoutEquivalence(t, []variant{
		{shards: 1, serialEnv: true}, {shards: 8, serialEnv: true},
		{shards: 1, threshold: 1}, {shards: 8, threshold: 1},
	})
}

// TestFanoutThresholdEquivalenceRandomized: the default threshold
// (mixed inline/pooled execution) matches the reference model too.
func TestFanoutThresholdEquivalenceRandomized(t *testing.T) {
	runFanoutEquivalence(t, []variant{{shards: 1}, {shards: 8}})
}

// TestFanoutParallelChurnStress hammers the parallel engine from 8
// publisher goroutines while another goroutine bounces subscriber
// connections mid-fan-out — the detached-subscription skip path and the
// batch-released-by-the-broker path (a run whose every delivery died)
// run constantly. Every delivery allocation must balance: SharedHeap
// panics on unbalanced frees, the counting DeliverBatch pool panics on
// a double release, and -race (CI) checks the locking.
func TestFanoutParallelChurnStress(t *testing.T) {
	env := newSpecEnv(false)
	cfg := DefaultConfig("fanchurn")
	cfg.Shards = 4
	cfg.ParallelFanoutThreshold = 8 // engage the pool on small fan-outs too
	b := New(env, cfg)

	const subConns = 4
	const subsPerConn = 12 // 48 matched targets per publish when all live
	for c := ConnID(1); c <= subConns; c++ {
		if err := b.OnConnOpen(c); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < subsPerConn; s++ {
			b.OnFrame(c, wire.Subscribe{SubID: int64(int(c)*1000 + s), Dest: message.Topic("churn")})
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		pubConn := ConnID(100 + g)
		if err := b.OnConnOpen(pubConn); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, pubConn ConnID) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				m := message.NewText("payload")
				m.ID = fmt.Sprintf("ID:churn/%d/%d", g, i)
				m.Dest = message.Topic("churn")
				b.OnFrame(pubConn, wire.Publish{Seq: int64(i), Msg: m})
			}
		}(g, pubConn)
	}
	wg.Add(1)
	go func() { // churner: bounce subscriber conns mid-fan-out
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 60; i++ {
			c := ConnID(rng.Intn(subConns) + 1)
			b.OnConnClose(c)
			if err := b.OnConnOpen(c); err != nil {
				t.Error(err)
				return
			}
			for s := 0; s < subsPerConn; s++ {
				b.OnFrame(c, wire.Subscribe{SubID: int64(1_000_000 + i*100 + s), Dest: message.Topic("churn")})
			}
		}
	}()
	wg.Wait()

	// Sweep: ack everything delivered, then drop every connection; the
	// heap must balance to zero.
	for c := ConnID(1); c <= subConns; c++ {
		env.drainAcks(b, c)
		b.OnConnClose(c)
	}
	for g := 0; g < 8; g++ {
		b.OnConnClose(ConnID(100 + g))
	}
	if used := env.heap.Used(); used != 0 {
		t.Fatalf("heap unbalanced after sweep: %d bytes", used)
	}
	if p := b.PendingCount(); p != 0 {
		t.Fatalf("pending not drained: %d", p)
	}
}
