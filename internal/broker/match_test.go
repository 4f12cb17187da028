package broker

import (
	"fmt"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Tests for the content-based matching index on the publish path:
// indexed routing must match the reference model — including Stats'
// SelectorRejected, which the indexed path bulk-accounts for skipped
// groups — and the Match* meters must prove the index skips
// non-candidate groups.

// TestMatchIndexLinearEquivalenceRandomized drives the randomized
// operation storm with selectors the index keys on — equality, IN
// lists, ranges, LIKE prefixes, conjunctions and disjunctions, and
// shapes it cannot key (IS NULL, NOT) — through every production
// variant and the reference model's linear scan.
func TestMatchIndexLinearEquivalenceRandomized(t *testing.T) {
	runSpecStorm(t, []string{
		"", "id = 7", "id = 42", "region = 'eu'", "region IN ('us', 'ap')",
		"id = 7 OR region = 'us'", "id > 90 AND region = 'eu'",
		"name LIKE 'gen-%' AND id < 20", "NOT (id = 3)", "missing IS NULL",
		"id BETWEEN 10 AND 12", "id IN (1, 2, 3) AND name = 'probe-2'",
	})
}

// TestMatchIndexMeters gates the index on a hot topic with 1000
// distinct equality selectors: at most one program evaluation per
// publish, while delivering and rejecting exactly what the reference
// model's linear scan does.
func TestMatchIndexMeters(t *testing.T) {
	const groups, publishes = 1000, 200
	for _, v := range allVariants {
		rig := newSpecRig(DefaultConfig("b"), []variant{v})
		rig.do(func(b brokerAPI) {
			for c := ConnID(1); c <= 2; c++ {
				if err := b.OnConnOpen(c); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < groups; i++ {
				b.OnFrame(2, wire.Subscribe{
					SubID:    int64(i + 1),
					Dest:     message.Topic("hot"),
					Selector: fmt.Sprintf("key = 'sub-%d'", i),
				})
			}
			for i := 0; i < publishes; i++ {
				publishOn(b, 1, fmt.Sprintf("m%d", i), message.Topic("hot"), map[string]message.Value{
					"key": message.String(fmt.Sprintf("sub-%d", i*5)),
				})
			}
		})
		rig.check(t, "")
		st := rig.brokers[0].Stats()
		if st.Delivered != publishes {
			t.Fatalf("%v: delivered %d, want %d", v, st.Delivered, publishes)
		}
		if st.MatchProgramEvals > publishes {
			t.Fatalf("%v: %d program evaluations over %d publishes, want at most 1 per publish",
				v, st.MatchProgramEvals, publishes)
		}
		if st.MatchIndexCandidates != st.MatchProgramEvals {
			t.Fatalf("%v: MatchIndexCandidates %d != MatchProgramEvals %d", v, st.MatchIndexCandidates, st.MatchProgramEvals)
		}
		if want := uint64(publishes * (groups - 1)); st.MatchGroupsSkipped != want {
			t.Fatalf("%v: MatchGroupsSkipped = %d, want %d", v, st.MatchGroupsSkipped, want)
		}
		if st.MatchDurablesSkipped != 0 {
			t.Fatalf("%v: MatchDurablesSkipped = %d, want 0 (no durables in play)", v, st.MatchDurablesSkipped)
		}
	}
}

// TestMatchIndexDurableCandidates covers the durable tail of the index
// seq space: buffering durables behind non-matching selectors are
// skipped without evaluation, matching ones still buffer.
func TestMatchIndexDurableCandidates(t *testing.T) {
	env := newFakeEnv(0)
	cfg := DefaultConfig("b")
	cfg.Shards = 4
	b := New(env, cfg)
	mustOpen(t, b, 1)
	mustOpen(t, b, 2)
	for i := 0; i < 8; i++ {
		b.OnFrame(2, wire.Subscribe{
			SubID:       int64(i + 1),
			Dest:        message.Topic("hot"),
			Selector:    fmt.Sprintf("key = 'dur-%d'", i),
			Durable:     true,
			DurableName: fmt.Sprintf("dur-%d", i),
		})
	}
	b.OnConnClose(2) // all durables now buffering

	before := b.Stats()
	publishOn(b, 1, "m", message.Topic("hot"), map[string]message.Value{
		"key": message.String("dur-3"),
	})
	after := b.Stats()

	if got := after.MatchProgramEvals - before.MatchProgramEvals; got != 1 {
		t.Fatalf("evaluated %d durables, want 1 candidate", got)
	}
	if got := after.MatchDurablesSkipped - before.MatchDurablesSkipped; got != 7 {
		t.Fatalf("skipped %d durables, want 7", got)
	}
	if got := after.MatchGroupsSkipped - before.MatchGroupsSkipped; got != 0 {
		t.Fatalf("MatchGroupsSkipped moved by %d, want 0 (durables are not groups)", got)
	}
	dumps := b.DumpDurables()
	stored := 0
	for _, d := range dumps {
		stored += len(d.Backlog)
		if len(d.Backlog) > 0 && d.Name != "dur-3" {
			t.Fatalf("durable %s buffered a non-matching message", d.Name)
		}
	}
	if stored != 1 {
		t.Fatalf("stored %d backlog messages, want 1", stored)
	}
}
