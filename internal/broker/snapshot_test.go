package broker

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Tests for the lock-free (snapshot) publish read path: snapshot
// routing must match the reference model (refmodel_test.go) for any
// single-goroutine operation sequence, and topic publishes must take no
// shard lock.

// TestSnapshotLockedEquivalenceRandomized drives the randomized
// operation storm through every production variant and the reference
// model. Its selectors include NaN constants and the residual "<>"
// shape, so the snapshot's matching index sees every key kind. Any
// index mutation missing its snapshot refresh shows up as a routing
// divergence from the model.
func TestSnapshotLockedEquivalenceRandomized(t *testing.T) {
	runSpecStorm(t, []string{
		"", "TRUE", "1 = 1",
		"id < 50", "id >= 50",
		"name LIKE 'gen-%'", "id BETWEEN 20 AND 60",
		"region IN ('us', 'eu') AND id < 80",
		"id <> 50",      // residual key: the only ordered shape a NaN id matches
		"id <= 0.0/0.0", // NaN constant: never TRUE, Never key
	})
}

// runSpecStorm drives identical randomized operation sequences —
// connection churn, topic/queue/durable subscribes with the given
// selectors, durable recreates (including cross-shard moves),
// unsubscribes, publishes (some with NaN ids) and partial acks —
// through the reference model and every production variant from one
// goroutine, then requires each broker to match the model
// (specRig.check). The first five selectors must be valid: queues use
// them.
func runSpecStorm(t *testing.T, selectors []string) {
	t.Helper()
	var topics, queues []message.Destination
	for i := 0; i < 10; i++ {
		topics = append(topics, message.Topic(fmt.Sprintf("t%d", i)))
	}
	for i := 0; i < 4; i++ {
		queues = append(queues, message.Queue(fmt.Sprintf("q%d", i)))
	}

	for seed := int64(1); seed <= 6; seed++ {
		rig := newSpecRig(DefaultConfig("b"), allVariants)
		rng := rand.New(rand.NewSource(seed))

		var open []ConnID
		nextConn := ConnID(0)
		openConn := func() {
			nextConn++
			id := nextConn
			rig.do(func(b brokerAPI) {
				if err := b.OnConnOpen(id); err != nil {
					t.Fatal(err)
				}
			})
			open = append(open, id)
		}
		openConn() // conn 1 is the dedicated publisher
		pubConn := open[0]

		type subInfo struct {
			conn ConnID
			id   int64
		}
		var live []subInfo
		nextSub := int64(0)
		closeConn := func(id ConnID) {
			open = slices.DeleteFunc(open, func(c ConnID) bool { return c == id })
			live = slices.DeleteFunc(live, func(s subInfo) bool { return s.conn == id })
			rig.do(func(b brokerAPI) { b.OnConnClose(id) })
		}

		for op := 0; op < 600; op++ {
			switch r := rng.Intn(20); {
			case r < 1 && len(open) < 12:
				openConn()
			case r < 2 && len(open) > 1: // close a non-publisher conn
				closeConn(open[1+rng.Intn(len(open)-1)])
			case r < 6: // subscribe a topic
				if len(open) < 2 {
					continue
				}
				nextSub++
				c := open[1+rng.Intn(len(open)-1)]
				f := wire.Subscribe{
					SubID:    nextSub,
					Dest:     topics[rng.Intn(len(topics))],
					Selector: selectors[rng.Intn(len(selectors))],
				}
				rig.do(func(b brokerAPI) { b.OnFrame(c, f) })
				live = append(live, subInfo{conn: c, id: nextSub})
			case r < 7: // subscribe a queue
				if len(open) < 2 {
					continue
				}
				nextSub++
				c := open[1+rng.Intn(len(open)-1)]
				f := wire.Subscribe{
					SubID:    nextSub,
					Dest:     queues[rng.Intn(len(queues))],
					Selector: selectors[rng.Intn(5)],
				}
				rig.do(func(b brokerAPI) { b.OnFrame(c, f) })
				live = append(live, subInfo{conn: c, id: nextSub})
			case r < 9: // durable attach/recreate (sometimes destroyed)
				if len(open) < 2 {
					continue
				}
				nextSub++
				c := open[1+rng.Intn(len(open)-1)]
				// Varying topic AND selector across attaches of the same
				// durable name exercises the recreate-on-change rule —
				// including cross-shard moves — against the snapshot
				// refresh sites.
				f := wire.Subscribe{
					SubID:       nextSub,
					Dest:        topics[rng.Intn(5)],
					Selector:    []string{"id < 70", "id < 30"}[rng.Intn(2)],
					Durable:     true,
					DurableName: fmt.Sprintf("dur-%d", rng.Intn(3)),
				}
				rig.do(func(b brokerAPI) { b.OnFrame(c, f) })
				switch rng.Intn(6) {
				case 0, 1:
					rig.do(func(b brokerAPI) { b.OnFrame(c, wire.Unsubscribe{SubID: f.SubID}) })
				case 2: // disconnect: the durable keeps buffering
					closeConn(c)
				default:
					live = append(live, subInfo{conn: c, id: nextSub})
				}
			case r < 10: // unsubscribe
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				s := live[i]
				live = append(live[:i], live[i+1:]...)
				rig.do(func(b brokerAPI) { b.OnFrame(s.conn, wire.Unsubscribe{SubID: s.id}) })
			case r < 12: // ack up to 20 of this conn's unacked deliveries
				if len(open) < 2 {
					continue
				}
				c := open[1+rng.Intn(len(open)-1)]
				for _, a := range rig.ref.out.takeAcks(c, 20) {
					rig.do(func(b brokerAPI) { b.OnFrame(c, a) })
				}
			default: // publish
				id := fmt.Sprintf("m%d", op)
				dest := topics[rng.Intn(len(topics))]
				if rng.Intn(4) == 0 {
					dest = queues[rng.Intn(len(queues))]
				}
				props := map[string]message.Value{
					"id":     message.Int(int32(rng.Intn(100))),
					"name":   message.String([]string{"gen-1", "probe-2"}[rng.Intn(2)]),
					"region": message.String([]string{"us", "eu", "ap"}[rng.Intn(3)]),
				}
				if rng.Intn(8) == 0 {
					// IEEE semantics: a NaN id matches no Eq/Range
					// selector, only "id <> 50".
					props["id"] = message.Double(math.NaN())
				}
				rig.do(func(b brokerAPI) { publishOn(b, pubConn, id, dest, props) })
			}
		}
		rig.check(t, fmt.Sprintf("seed %d", seed))
	}
}

// TestReadPathLockMeters pins the observable contract of the lock
// meters: topic publishes take zero shard locks (ReadLockAcquisitions
// stays 0 and ShardLockAcquisitions does not move).
func TestReadPathLockMeters(t *testing.T) {
	env := newFakeEnv(0)
	cfg := DefaultConfig("b")
	cfg.Shards = 4
	b := New(env, cfg)
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	b.OnFrame(2, wire.Subscribe{SubID: 1, Dest: message.Topic("t")})
	before := b.Stats()
	const n = 50
	for i := 0; i < n; i++ {
		publishOn(b, 1, fmt.Sprintf("m%d", i), message.Topic("t"), nil)
	}
	after := b.Stats()
	if got := after.Delivered - before.Delivered; got != n {
		t.Fatalf("delivered %d of %d publishes", got, n)
	}
	if locks := after.ShardLockAcquisitions - before.ShardLockAcquisitions; locks != 0 {
		t.Fatalf("%d shard locks over %d topic publishes, want 0", locks, n)
	}
	if after.ReadLockAcquisitions != 0 {
		t.Fatalf("ReadLockAcquisitions = %d, want 0", after.ReadLockAcquisitions)
	}
}

// TestSnapshotSeesRestoredDurables covers the recovery refresh sites: a
// durable restored through the journal Restore API must buffer snapshot-
// path publishes (RestoreDurable), and a restored-then-dropped one must
// not (RestoreDurableDrop).
func TestSnapshotSeesRestoredDurables(t *testing.T) {
	env := newFakeEnv(0)
	cfg := DefaultConfig("b")
	cfg.Shards = 4
	b := New(env, cfg)
	if err := b.RestoreDurable("keep", "t", "id < 50"); err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreDurable("drop", "t", ""); err != nil {
		t.Fatal(err)
	}
	b.RestoreDurableDrop("drop")

	mustOpen(t, b, 1)
	publishOn(b, 1, "hit", message.Topic("t"), map[string]message.Value{"id": message.Int(7)})
	publishOn(b, 1, "miss", message.Topic("t"), map[string]message.Value{"id": message.Int(90)})

	dumps := b.DumpDurables()
	if len(dumps) != 1 || dumps[0].Name != "keep" {
		t.Fatalf("durable dump: %+v", dumps)
	}
	if len(dumps[0].Backlog) != 1 || dumps[0].Backlog[0].ID != "hit" {
		t.Fatalf("restored durable backlog: %+v", dumps[0].Backlog)
	}
}
