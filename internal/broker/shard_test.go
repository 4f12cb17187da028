package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Tests for the sharded destination layer. Two obligations:
//
//  1. Equivalence — sharding is a pure partitioning of lock domains, so
//     with a single calling goroutine a broker of any shard count must
//     match the reference model (refmodel_test.go) for any operation
//     sequence.
//  2. Safety — with many calling goroutines the broker must stay
//     data-race free and keep its memory accounting balanced. Run under
//     -race (the CI race job covers this package).

func TestShardOfPartitionsNames(t *testing.T) {
	b, _ := newBroker(t, 0)
	if b.NumShards() != 1 || b.ShardOf("anything") != 0 {
		t.Fatalf("default broker: shards=%d shardOf=%d", b.NumShards(), b.ShardOf("anything"))
	}
	cfg := DefaultConfig("b8")
	cfg.Shards = 8
	b8 := New(newFakeEnv(0), cfg)
	if b8.NumShards() != 8 {
		t.Fatalf("shards = %d, want 8", b8.NumShards())
	}
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		s := b8.ShardOf(fmt.Sprintf("topic-%d", i))
		if s < 0 || s >= 8 {
			t.Fatalf("shard index %d out of range", s)
		}
		seen[s] = true
		if s2 := b8.ShardOf(fmt.Sprintf("topic-%d", i)); s2 != s {
			t.Fatalf("ShardOf not stable: %d then %d", s, s2)
		}
	}
	if len(seen) < 4 {
		t.Fatalf("256 names landed on only %d of 8 shards", len(seen))
	}
}

// TestShardedSerialEquivalenceRandomized drives the randomized
// operation storm, including an invalid selector that every broker must
// refuse, through brokers of 1 and 8 shards and the reference model.
// This is the "sharded == serial" proof the concurrency architecture
// rests on: shards change only which operations may overlap, never
// what any operation does.
func TestShardedSerialEquivalenceRandomized(t *testing.T) {
	runSpecStorm(t, []string{
		"", "TRUE", "1 = 1",
		"id < 50", "id >= 50",
		"name LIKE 'gen-%'", "id BETWEEN 20 AND 60",
		"region IN ('us', 'eu') AND id < 80",
		"not a selector <<", // invalid: refused identically
	})
}

// TestConcurrentShardStress runs subscribe/publish/ack/unsubscribe/
// disconnect from 16 goroutines against an 8-shard broker, with stats
// readers running concurrently. Each goroutine owns its connections
// (per-connection frame serialization is the transport contract); the
// destinations are shared, so goroutines meet on every shard. Afterwards
// a sequential sweep releases queue and durable backlogs and the heap
// must balance to zero — SharedHeap panics on any unbalanced free, and
// -race (CI) checks the locking.
func TestConcurrentShardStress(t *testing.T) {
	const workers = 16
	env := newSpecEnv(false)
	cfg := DefaultConfig("race")
	cfg.Shards = 8
	b := New(env, cfg)

	topics := make([]message.Destination, 8)
	for i := range topics {
		topics[i] = message.Topic(fmt.Sprintf("t%d", i))
	}
	queues := make([]message.Destination, 4)
	for i := range queues {
		queues[i] = message.Queue(fmt.Sprintf("q%d", i))
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent Stats/PendingCount/Topics readers
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = b.Stats()
				_ = b.PendingCount()
				_ = b.Topics()
				_ = b.TopicSubscribers("t0")
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			gen := 0
			newConnID := func() ConnID {
				gen++
				return ConnID(g*100000 + gen)
			}
			c := newConnID()
			if err := b.OnConnOpen(c); err != nil {
				t.Error(err)
				return
			}
			nextSub := int64(0)
			var live []int64
			for op := 0; op < 400; op++ {
				switch r := rng.Intn(10); {
				case r < 3: // subscribe topic (own durable name sometimes)
					nextSub++
					f := wire.Subscribe{SubID: nextSub, Dest: topics[rng.Intn(len(topics))]}
					if rng.Intn(4) == 0 {
						f.Selector = "id < 50"
					}
					if rng.Intn(5) == 0 {
						f.Durable = true
						// Mostly private durable names; sometimes a shared
						// one, whose second attach is rejected — both
						// outcomes must be safe.
						if rng.Intn(3) == 0 {
							f.DurableName = "dur-shared"
						} else {
							f.DurableName = fmt.Sprintf("dur-%d", g)
						}
					}
					b.OnFrame(c, f)
					live = append(live, nextSub)
				case r < 4: // subscribe queue
					nextSub++
					b.OnFrame(c, wire.Subscribe{SubID: nextSub, Dest: queues[rng.Intn(len(queues))]})
					live = append(live, nextSub)
				case r < 5: // unsubscribe
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					b.OnFrame(c, wire.Unsubscribe{SubID: live[i]})
					live = append(live[:i], live[i+1:]...)
				case r < 6: // ack everything delivered so far
					env.drainAcks(b, c)
				case r < 7: // disconnect, reconnect under a fresh id
					b.OnConnClose(c)
					env.drainAcks(b, c) // acks for a dead conn are ignored
					c = newConnID()
					if err := b.OnConnOpen(c); err != nil {
						t.Error(err)
						return
					}
					live = live[:0]
					nextSub = 0
				default: // publish
					m := message.NewText("x")
					m.ID = fmt.Sprintf("m-%d-%d", g, op)
					m.Dest = topics[rng.Intn(len(topics))]
					if rng.Intn(4) == 0 {
						m.Dest = queues[rng.Intn(len(queues))]
					}
					m.SetProperty("id", message.Int(int32(rng.Intn(100))))
					b.OnFrame(c, wire.Publish{Seq: int64(op), Msg: m})
				}
			}
			env.drainAcks(b, c)
			b.OnConnClose(c)
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := b.Stats().Connections; got != 0 {
		t.Fatalf("connections after close: %d", got)
	}

	// Sequential sweep: recreate-and-destroy each durable (frees its
	// backlog), drain each queue and ack the deliveries. The heap must
	// return to exactly zero.
	sweep := ConnID(9_000_000)
	if err := b.OnConnOpen(sweep); err != nil {
		t.Fatal(err)
	}
	subID := int64(0)
	for g := 0; g <= workers; g++ {
		name := fmt.Sprintf("dur-%d", g)
		if g == workers {
			name = "dur-shared"
		}
		subID++
		// A different topic+selector recreates the durable, freeing any
		// buffered backlog; unsubscribing destroys it.
		b.OnFrame(sweep, wire.Subscribe{
			SubID: subID, Dest: message.Topic("sweep"), Selector: "FALSE",
			Durable: true, DurableName: name,
		})
		b.OnFrame(sweep, wire.Unsubscribe{SubID: subID})
	}
	for _, q := range queues {
		subID++
		b.OnFrame(sweep, wire.Subscribe{SubID: subID, Dest: q})
		env.drainAcks(b, sweep)
		b.OnFrame(sweep, wire.Unsubscribe{SubID: subID})
	}
	env.drainAcks(b, sweep)
	b.OnConnClose(sweep)

	if used := env.heap.Used(); used != 0 {
		t.Fatalf("heap not balanced after full teardown: %d bytes live", used)
	}
	if n := b.PendingCount(); n != 0 {
		t.Fatalf("pending count after teardown: %d", n)
	}
	st := b.Stats()
	if st.ReadLockAcquisitions != 0 {
		t.Fatalf("concurrent publishes took %d read-path shard locks, want 0", st.ReadLockAcquisitions)
	}
	if st.Delivered < st.Acked {
		t.Fatalf("delivered %d < acked %d", st.Delivered, st.Acked)
	}
	if st.Published == 0 || st.Delivered == 0 {
		t.Fatalf("stress produced no traffic: %+v", st)
	}
}
