package rgmacore

import (
	"fmt"
	"reflect"
	"testing"

	"gridmon/internal/rgma"
	"gridmon/internal/sim"
)

// Tests for the content-based matching index on the insert stream path.

// TestCoreMatchIndexLinearEquivalenceRandomized drives the randomized
// operation storm with WHERE clauses the index keys on — equality,
// ranges, conjunctions, disjunctions — and shapes it cannot key (NOT,
// IS NULL) through cores of 1 and 8 shards and the reference model's
// linear scan.
func TestCoreMatchIndexLinearEquivalenceRandomized(t *testing.T) {
	runCoreSpecStorm(t, []string{
		"SELECT * FROM %s",
		"SELECT * FROM %s WHERE site = 'aberdeen'",
		"SELECT * FROM %s WHERE seq = 7",
		"SELECT * FROM %s WHERE seq = 7 OR site = 'dundee'",
		"SELECT * FROM %s WHERE seq > 90 AND site = 'dundee'",
		"SELECT * FROM %s WHERE seq < 10 OR seq > 90",
		"SELECT * FROM %s WHERE NOT seq = 3",
		"SELECT * FROM %s WHERE site IS NULL",
		"SELECT * FROM %s WHERE genid = 3 AND seq >= 50",
	})
}

// TestCoreMatchIndexMeters gates the index on a hot table with 1000
// distinct equality WHEREs: at most one program evaluation per insert,
// while streaming exactly what the reference model's linear scan does.
func TestCoreMatchIndexMeters(t *testing.T) {
	const consumers, inserts = 1000, 200
	const ddl = "CREATE TABLE hot (genid INTEGER PRIMARY KEY, site CHAR(20))"
	query := func(i int) string { return fmt.Sprintf("SELECT * FROM hot WHERE site = 'c%d'", i) }
	insert := func(i int) string { return fmt.Sprintf("INSERT INTO hot (genid, site) VALUES (%d, 'c%d')", i, i*5) }

	// The reference model's pops: producer id 1, consumer ids 2.. .
	ref := newRefCore(func() sim.Time { return 0 })
	if _, err := ref.CreateTable(ddl); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.CreateProducer("hot", sim.Second, sim.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < consumers; i++ {
		if _, err := ref.CreateConsumer(query(i), rgma.ContinuousQuery); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < inserts; i++ {
		if err := ref.Insert(1, insert(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]PopTuple, consumers)
	for i := range want {
		want[i], _ = ref.Pop(int64(i + 2))
	}

	for _, shards := range specShards {
		c := New(Config{Shards: shards})
		c.clock = func() sim.Time { return 0 }
		mustCreateTable(t, c, ddl)
		p, err := c.CreateProducer("hot", sim.Second, sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		var cns []*Consumer
		for i := 0; i < consumers; i++ {
			cn, err := c.CreateConsumer(query(i), rgma.ContinuousQuery, nil)
			if err != nil {
				t.Fatal(err)
			}
			cns = append(cns, cn)
		}
		for i := 0; i < inserts; i++ {
			if err := c.Insert(p.ID(), insert(i)); err != nil {
				t.Fatal(err)
			}
		}
		st := c.StatsSnapshot()
		for i, cn := range cns {
			got, err := c.Pop(cn.ID())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("shards=%d: consumer %d popped %v, want %v", shards, i, got, want[i])
			}
		}
		if st.TuplesStreamed != inserts {
			t.Fatalf("shards=%d: streamed %d, want %d", shards, st.TuplesStreamed, inserts)
		}
		if st.MatchProgramEvals > inserts {
			t.Fatalf("shards=%d: %d program evaluations over %d inserts, want at most 1 per insert",
				shards, st.MatchProgramEvals, inserts)
		}
		if st.MatchIndexCandidates != st.MatchProgramEvals {
			t.Fatalf("shards=%d: MatchIndexCandidates %d != MatchProgramEvals %d", shards, st.MatchIndexCandidates, st.MatchProgramEvals)
		}
		if want := uint64(inserts * (consumers - 1)); st.MatchConsumersSkipped != want {
			t.Fatalf("shards=%d: MatchConsumersSkipped = %d, want %d", shards, st.MatchConsumersSkipped, want)
		}
	}
}

// TestTableIdentityPinned pins the invariant streamInsert's dropped
// table re-check relied on: a table's *Table value is never replaced
// once created — re-declaring the identical schema is a no-op returning
// the same pointer, and a conflicting declaration errors. Consumers and
// producers registered under one table name therefore always share one
// table identity.
func TestTableIdentityPinned(t *testing.T) {
	c := New(Config{Shards: 2})
	const ddl = "CREATE TABLE pin (genid INTEGER PRIMARY KEY, seq INTEGER)"
	t1, err := c.CreateTable(ddl)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.CreateTable(ddl)
	if err != nil {
		t.Fatalf("identical re-create: %v", err)
	}
	if t1 != t2 {
		t.Fatal("identical re-create returned a different *Table — streamInsert's identity assumption broken")
	}
	if _, err := c.CreateTable("CREATE TABLE pin (genid INTEGER PRIMARY KEY, other CHAR(8))"); err == nil {
		t.Fatal("conflicting re-create succeeded — streamInsert's identity assumption broken")
	}

	p, err := c.CreateProducer("pin", sim.Second, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := c.CreateConsumer("SELECT * FROM pin", rgma.ContinuousQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.table != cn.table {
		t.Fatal("producer and consumer of one table hold different *Table values")
	}
}
