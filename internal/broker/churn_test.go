package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// TestSnapshotChurnEquivalence is the randomized churn storm for the
// lock-free read path: concurrent subscribe/unsubscribe/durable-
// recreate churn while publishers hammer the same topics. Delivery
// *during* the storm is inherently racy (a publish concurrent with a
// subscribe may legitimately land on either side of it), so the storm
// phase asserts safety only — no races under -race, balanced heap at
// teardown, no lost allocations from publishes racing drops, no
// read-path shard locks. Then the storm quiesces, a deterministic
// subscriber set attaches, and a known message batch is published from
// one goroutine: the deliveries must equal the reference model's for
// the same probe, proving the churned-up snapshot state converged to
// an empty index.
func TestSnapshotChurnEquivalence(t *testing.T) {
	runChurnStorm(t, []string{"", "id < 50", "id >= 50"})
}

// TestMatchIndexChurnEquivalence runs the churn storm with selectors
// the matching index keys on, so concurrent index rebuilds race
// indexed publishes under -race, and the quiesced probe must route
// exactly like the reference model's linear scan.
func TestMatchIndexChurnEquivalence(t *testing.T) {
	runChurnStorm(t, []string{"id = 7", "id IN (1, 2, 3)", "id > 90", "", "id = 50 OR id = 51"})
}

// runChurnStorm runs the churn storm, with subscriptions drawn from
// selectors, against each concurrent production variant, and checks
// the quiesced probe against the reference model.
func runChurnStorm(t *testing.T, selectors []string) {
	t.Helper()
	const (
		churners  = 6
		pubs      = 4
		stormOps  = 300
		stormMsgs = 200
		probeMsgs = 120
	)
	topics := make([]message.Destination, 6)
	for i := range topics {
		topics[i] = message.Topic(fmt.Sprintf("t%d", i))
	}

	probes := []struct {
		conn ConnID
		dest message.Destination
		sel  string
	}{
		{301, topics[0], ""},
		{302, topics[0], "id < 50"},
		{303, topics[1], "id >= 50"},
		{304, topics[2], "id = 7"},
		{305, topics[3], "id < 25"},
	}
	const pubConn = ConnID(400)
	probe := func(b brokerAPI) {
		for i, p := range probes {
			if err := b.OnConnOpen(p.conn); err != nil {
				t.Fatal(err)
			}
			b.OnFrame(p.conn, wire.Subscribe{SubID: int64(i + 1), Dest: p.dest, Selector: p.sel})
		}
		if err := b.OnConnOpen(pubConn); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < probeMsgs; i++ {
			m := message.NewText("probe")
			m.ID = fmt.Sprintf("p2-%d", i)
			m.Dest = topics[rng.Intn(4)]
			m.SetProperty("id", message.Int(int32(rng.Intn(100))))
			b.OnFrame(pubConn, wire.Publish{Seq: int64(i), Msg: m})
		}
	}
	ref := newRefBroker(DefaultConfig("churn"))
	probe(ref)

	for _, v := range concurrentVariants {
		b, env := v.newBroker(DefaultConfig("churn"))

		// --- Phase 1: churn storm under concurrent publishing.
		var wg sync.WaitGroup
		for g := 0; g < churners; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000 + g)))
				c := ConnID(100 + g)
				if err := b.OnConnOpen(c); err != nil {
					t.Error(err)
					return
				}
				nextSub := int64(0)
				var live []int64
				for op := 0; op < stormOps; op++ {
					switch r := rng.Intn(10); {
					case r < 4: // subscribe (sometimes durable: recreate storms)
						nextSub++
						f := wire.Subscribe{
							SubID:    nextSub,
							Dest:     topics[rng.Intn(len(topics))],
							Selector: selectors[rng.Intn(len(selectors))],
						}
						if rng.Intn(3) == 0 {
							f.Durable = true
							f.DurableName = fmt.Sprintf("dur-%d", g)
						}
						b.OnFrame(c, f)
						live = append(live, nextSub)
					case r < 7: // unsubscribe
						if len(live) == 0 {
							continue
						}
						i := rng.Intn(len(live))
						b.OnFrame(c, wire.Unsubscribe{SubID: live[i]})
						live = append(live[:i], live[i+1:]...)
					default: // ack deliveries so far
						env.drainAcks(b, c)
					}
				}
				env.drainAcks(b, c)
				b.OnConnClose(c)
			}(g)
		}
		for g := 0; g < pubs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(2000 + g)))
				c := ConnID(200 + g)
				if err := b.OnConnOpen(c); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < stormMsgs; i++ {
					m := message.NewText("x")
					m.ID = fmt.Sprintf("p1-%d-%d", g, i)
					m.Dest = topics[rng.Intn(len(topics))]
					m.SetProperty("id", message.Int(int32(rng.Intn(100))))
					b.OnFrame(c, wire.Publish{Seq: int64(i), Msg: m})
				}
				b.OnConnClose(c)
			}(g)
		}
		wg.Wait()

		// Destroy the churners' durables so leftover backlogs can't leak
		// into phase 2 (their content is storm-order dependent).
		sweep := ConnID(900)
		if err := b.OnConnOpen(sweep); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < churners; g++ {
			id := int64(g + 1)
			b.OnFrame(sweep, wire.Subscribe{
				SubID: id, Dest: message.Topic("sweep"), Selector: "FALSE",
				Durable: true, DurableName: fmt.Sprintf("dur-%d", g),
			})
			b.OnFrame(sweep, wire.Unsubscribe{SubID: id})
		}
		env.drainAcks(b, sweep)
		b.OnConnClose(sweep)

		// --- Phase 2: deterministic probe over the quiesced broker.
		probe(b)
		for _, p := range probes {
			if got, want := env.out.messages(p.conn), ref.out.messages(p.conn); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: probe conn %d deliveries diverge from the reference model:\n got  %v\n want %v",
					v, p.conn, got, want)
			}
		}

		// Tear everything down; the shared heap must balance to zero or
		// a snapshot-path delivery leaked past a drop.
		for _, p := range probes {
			env.drainAcks(b, p.conn)
			b.OnConnClose(p.conn)
		}
		b.OnConnClose(pubConn)
		if used := env.heap.Used(); used != 0 {
			t.Fatalf("%v: heap not balanced after teardown: %d bytes live", v, used)
		}
		if n := b.PendingCount(); n != 0 {
			t.Fatalf("%v: pending after teardown: %d", v, n)
		}
		if rl := b.Stats().ReadLockAcquisitions; rl != 0 {
			t.Fatalf("%v: %d read-path shard locks", v, rl)
		}
	}
}
