package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Tests for subscription visibility: once a client has seen SubOK, its
// subscription receives every later publish, and a durable subscription
// racing publishers through detach and reattach receives every message
// exactly once, in per-publisher order.

// subOKHookEnv is a specEnv that runs onSubOK inside Send of a SubOK,
// before Send returns — the point at which a real client may already
// have seen the SubOK and published.
type subOKHookEnv struct {
	*specEnv
	onSubOK func(wire.SubOK)
}

func (e *subOKHookEnv) Send(c ConnID, f wire.Frame) {
	e.specEnv.Send(c, f)
	if ok, isOK := f.(wire.SubOK); isOK && e.onSubOK != nil {
		e.onSubOK(ok)
	}
}

// newHookedBroker returns a broker of the variant's configuration whose
// Env publishes msgID on topic from conn 9, on another goroutine, when
// it sends SubOK for subID, and waits for the publish to complete.
func newHookedBroker(t *testing.T, v variant, topic message.Destination, subID int64, msgID string) (*Broker, *specEnv) {
	t.Helper()
	env := &subOKHookEnv{specEnv: newSpecEnv(false)}
	cfg := DefaultConfig("b")
	cfg.Shards = v.shards
	cfg.ParallelFanoutThreshold = v.threshold
	b := New(env, cfg)
	if err := b.OnConnOpen(9); err != nil {
		t.Fatal(err)
	}
	env.onSubOK = func(ok wire.SubOK) {
		if ok.SubID != subID {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			publishOn(b, 9, msgID, topic, nil)
		}()
		<-done
	}
	return b, env.specEnv
}

// TestPublishAfterSubOKReachesSubscription: a publish issued after the
// new subscription's SubOK must reach it as well as the existing one.
func TestPublishAfterSubOKReachesSubscription(t *testing.T) {
	topic := message.Topic("t")
	for _, v := range concurrentVariants {
		b, env := newHookedBroker(t, v, topic, 2, "m")
		mustOpen(t, b, 1)
		mustOpen(t, b, 2)
		b.OnFrame(1, wire.Subscribe{SubID: 1, Dest: topic})
		b.OnFrame(2, wire.Subscribe{SubID: 2, Dest: topic})
		got := [][]string{env.out.messages(1)[1], env.out.messages(2)[2]}
		if want := [][]string{{"m"}, {"m"}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: deliveries to the old and new subscription = %v, want %v", v, got, want)
		}
	}
}

// TestPublishAfterDurableSubOKIsDelivered: a publish issued after a
// durable reattach's SubOK must be delivered, after the backlog the
// durable buffered while disconnected.
func TestPublishAfterDurableSubOKIsDelivered(t *testing.T) {
	topic := message.Topic("t")
	for _, v := range concurrentVariants {
		b, env := newHookedBroker(t, v, topic, 2, "live")
		mustOpen(t, b, 1)
		b.OnFrame(1, wire.Subscribe{SubID: 1, Dest: topic, Durable: true, DurableName: "d"})
		b.OnConnClose(1)
		publishOn(b, 9, "buffered", topic, nil)
		mustOpen(t, b, 2)
		b.OnFrame(2, wire.Subscribe{SubID: 2, Dest: topic, Durable: true, DurableName: "d"})
		if got, want := env.out.messages(2)[2], []string{"buffered", "live"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: reattached durable received %v, want %v", v, got, want)
		}
	}
}

// TestDurableReattachRaceExactlyOnce races publishers against a
// durable subscription that a churner keeps detaching (connection
// close) and reattaching on a fresh connection. Every publish is acked
// (OnFrame returns after PubAck), so every message the durable's
// selector accepts must be delivered exactly once across the
// incarnations, in per-publisher order. The reference model gives the
// expected deliveries.
func TestDurableReattachRaceExactlyOnce(t *testing.T) {
	const (
		pubs   = 4
		perPub = 400
		sel    = "id < 80"
	)
	topic := message.Topic("t")
	type pubMsg struct {
		id string
		n  int32
	}
	var msgs [pubs][]pubMsg
	rng := rand.New(rand.NewSource(5))
	for p := range msgs {
		for i := 0; i < perPub; i++ {
			msgs[p] = append(msgs[p], pubMsg{fmt.Sprintf("p%d-%04d", p, i), int32(rng.Intn(100))})
		}
	}
	publish := func(b brokerAPI, c ConnID, m pubMsg) {
		publishOn(b, c, m.id, topic, map[string]message.Value{"id": message.Int(m.n)})
	}

	ref := newRefBroker(DefaultConfig("b"))
	for _, c := range []ConnID{1, 2} {
		if err := ref.OnConnOpen(c); err != nil {
			t.Fatal(err)
		}
	}
	ref.OnFrame(1, wire.Subscribe{SubID: 1, Dest: topic, Selector: sel, Durable: true, DurableName: "d"})
	for p := range msgs {
		for _, m := range msgs[p] {
			publish(ref, 2, m)
		}
	}
	want := ref.out.messages(1)[1]

	for _, v := range concurrentVariants {
		b, env := v.newBroker(DefaultConfig("b"))
		// The first incarnation attaches before any publish, so the
		// durable exists for all of them.
		incarnation := ConnID(1000)
		if err := b.OnConnOpen(incarnation); err != nil {
			t.Fatal(err)
		}
		attach := func(c ConnID) {
			b.OnFrame(c, wire.Subscribe{SubID: 1, Dest: topic, Selector: sel, Durable: true, DurableName: "d"})
		}
		attach(incarnation)

		var wg sync.WaitGroup
		for p := range msgs {
			c := ConnID(p + 1)
			if err := b.OnConnOpen(c); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(p int, c ConnID) {
				defer wg.Done()
				for _, m := range msgs[p] {
					publish(b, c, m)
					runtime.Gosched() // interleave with the churner
				}
			}(p, c)
		}
		// The churner keeps going until the publishers are done, and for
		// at least 20 cycles.
		stop := make(chan struct{})
		churned := make(chan struct{})
		go func() {
			defer close(churned)
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i >= 20 {
						return
					}
				default:
				}
				for j := 0; j < i%4; j++ {
					runtime.Gosched()
				}
				env.drainAcks(b, incarnation)
				b.OnConnClose(incarnation)
				incarnation++
				if err := b.OnConnOpen(incarnation); err != nil {
					t.Error(err)
					return
				}
				attach(incarnation)
			}
		}()
		wg.Wait()
		close(stop)
		<-churned

		var got []string
		for c := ConnID(1000); c <= incarnation; c++ {
			if seq := env.out.subs[subKey{c, 1}]; len(seq) == 0 || seq[0] != "ok" {
				t.Fatalf("%v: incarnation %d was not accepted: %v", v, c, seq)
			}
			got = append(got, env.out.messages(c)[1]...)
		}
		for p := 0; p < pubs; p++ {
			prefix := fmt.Sprintf("p%d-", p)
			mine := func(id string) bool { return !strings.HasPrefix(id, prefix) }
			g := slices.DeleteFunc(slices.Clone(got), mine)
			w := slices.DeleteFunc(slices.Clone(want), mine)
			if i := firstDiff(g, w); i >= 0 {
				t.Fatalf("%v: publisher %d: delivered %d messages, want %d exactly once in order (%d reattaches); first difference at %d",
					v, p, len(g), len(w), incarnation-1000, i)
			}
		}

		env.drainAcks(b, incarnation)
		b.OnFrame(incarnation, wire.Unsubscribe{SubID: 1})
		for c := ConnID(1); c <= pubs; c++ {
			b.OnConnClose(c)
		}
		b.OnConnClose(incarnation)
		if used := env.heap.Used(); used != 0 {
			t.Fatalf("%v: heap not balanced after teardown: %d bytes live", v, used)
		}
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
