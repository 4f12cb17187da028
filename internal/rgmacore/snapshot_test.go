package rgmacore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gridmon/internal/rgma"
	"gridmon/internal/sim"
)

// Tests for the lock-free (snapshot) read paths: Insert's continuous-
// consumer scan and Pop's latest/history producer gather. Mirrors the
// obligations of internal/broker's snapshot_test.go: snapshot routing
// must match the reference model (refmodel_test.go) for any
// single-caller operation sequence, survive concurrent index churn
// under -race, and take no read-path locks.

// TestCoreSnapshotLockedEquivalenceRandomized drives the randomized
// operation storm through cores of 1 and 8 shards and the reference
// model. Any index mutation missing its refreshSnap shows up as a pop
// divergence.
func TestCoreSnapshotLockedEquivalenceRandomized(t *testing.T) {
	runCoreSpecStorm(t, []string{
		"SELECT * FROM %s",
		"SELECT * FROM %s WHERE seq < 50",
		"SELECT * FROM %s WHERE seq >= 50",
		"SELECT * FROM %s WHERE site = 'aberdeen'",
	})
}

// runCoreSpecStorm drives identical randomized operation sequences —
// table declares, producer and consumer create/close churn (all query
// types, queries drawn from the given templates), inserts, pops —
// through the reference model and one core per shard count from a
// single goroutine, comparing every result and error as it happens and
// the stats at the end.
func runCoreSpecStorm(t *testing.T, queries []string) {
	t.Helper()
	tables := []string{"ta", "tb", "tc"}
	qtypes := []rgma.QueryType{rgma.ContinuousQuery, rgma.LatestQuery, rgma.HistoryQuery}

	for seed := int64(1); seed <= 5; seed++ {
		var now sim.Time
		clock := func() sim.Time { return now }
		ref := newRefCore(clock)
		var cores []*Core
		for _, n := range specShards {
			c := New(Config{Shards: n})
			c.clock = clock
			cores = append(cores, c)
		}
		// check runs one operation on the model and every core, and
		// requires each core to agree with the model on the result and
		// on whether it failed.
		check := func(op string, model func() (any, error), prod func(c *Core) (any, error)) (any, error) {
			want, wantErr := model()
			for i, c := range cores {
				got, err := prod(c)
				if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d shards=%d %s: got %v (err %v), want %v (err %v)",
						seed, specShards[i], op, got, err, want, wantErr)
				}
			}
			return want, wantErr
		}
		for _, tab := range tables {
			ddl := fmt.Sprintf("CREATE TABLE %s (genid INTEGER PRIMARY KEY, seq INTEGER, site CHAR(20))", tab)
			if _, err := check(ddl, func() (any, error) { return ref.CreateTable(ddl) },
				func(c *Core) (any, error) { return c.CreateTable(ddl) }); err != nil {
				t.Fatal(err)
			}
		}

		rng := rand.New(rand.NewSource(seed))
		var producers, consumers []int64
		for op := 0; op < 600; op++ {
			now += sim.Time(rng.Intn(50)) * sim.Millisecond
			switch r := rng.Intn(20); {
			case r < 3: // create a producer (sometimes default retention)
				tab := tables[rng.Intn(len(tables))]
				ret := sim.Time(rng.Intn(3)) * sim.Second
				id, err := check("create producer",
					func() (any, error) { return ref.CreateProducer(tab, ret, ret) },
					func(c *Core) (any, error) {
						p, err := c.CreateProducer(tab, ret, ret)
						if err != nil {
							return int64(0), err
						}
						return p.ID(), nil
					})
				if err == nil {
					producers = append(producers, id.(int64))
				}
			case r < 5: // close a producer
				if len(producers) == 0 {
					continue
				}
				i := rng.Intn(len(producers))
				id := producers[i]
				producers = append(producers[:i], producers[i+1:]...)
				check("close producer", func() (any, error) { return nil, ref.CloseProducer(id) },
					func(c *Core) (any, error) { return nil, c.CloseProducer(id) })
			case r < 9: // create a consumer (any query type)
				q := fmt.Sprintf(queries[rng.Intn(len(queries))], tables[rng.Intn(len(tables))])
				qt := qtypes[rng.Intn(len(qtypes))]
				id, err := check("create consumer "+q,
					func() (any, error) { return ref.CreateConsumer(q, qt) },
					func(c *Core) (any, error) {
						cn, err := c.CreateConsumer(q, qt, nil)
						if err != nil {
							return int64(0), err
						}
						return cn.ID(), nil
					})
				if err == nil {
					consumers = append(consumers, id.(int64))
				}
			case r < 11: // close a consumer
				if len(consumers) == 0 {
					continue
				}
				i := rng.Intn(len(consumers))
				id := consumers[i]
				consumers = append(consumers[:i], consumers[i+1:]...)
				check("close consumer", func() (any, error) { return nil, ref.CloseConsumer(id) },
					func(c *Core) (any, error) { return nil, c.CloseConsumer(id) })
			case r < 14: // pop a consumer, comparing the delivered tuples
				if len(consumers) == 0 {
					continue
				}
				id := consumers[rng.Intn(len(consumers))]
				check(fmt.Sprintf("op %d pop %d", op, id), func() (any, error) { return ref.Pop(id) },
					func(c *Core) (any, error) { return c.Pop(id) })
			default: // insert through a random live producer
				if len(producers) == 0 {
					continue
				}
				id := producers[rng.Intn(len(producers))]
				stmt := fmt.Sprintf(
					"INSERT INTO %s (genid, seq, site) VALUES (%d, %d, '%s')",
					tables[rng.Intn(len(tables))], rng.Intn(20), rng.Intn(100),
					[]string{"aberdeen", "dundee"}[rng.Intn(2)])
				if rng.Intn(10) == 0 {
					// A NULL site: only IS NULL matches it.
					stmt = fmt.Sprintf("INSERT INTO %s (genid, seq) VALUES (%d, %d)",
						tables[rng.Intn(len(tables))], rng.Intn(20), rng.Intn(100))
				}
				check("insert", func() (any, error) { return nil, ref.Insert(id, stmt) },
					func(c *Core) (any, error) { return nil, c.Insert(id, stmt) })
			}
		}

		for i, c := range cores {
			if got := specStats(c.StatsSnapshot()); got != ref.stats {
				t.Fatalf("seed %d shards=%d: stats\n got  %+v\n want %+v", seed, specShards[i], got, ref.stats)
			}
		}
	}
}

// TestCoreReadPathLockMeters pins the meter contract: inserts and
// latest/continuous pops record zero read-path lock acquisitions.
func TestCoreReadPathLockMeters(t *testing.T) {
	run := func() uint64 {
		c := New(Config{Shards: 2})
		mustCreateTable(t, c, testTableSQL)
		p, err := c.CreateProducer("g", sim.Second, sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		cont, err := c.CreateConsumer("SELECT * FROM g", rgma.ContinuousQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := c.CreateConsumer("SELECT * FROM g", rgma.LatestQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		const inserts, pops = 40, 10
		for i := 0; i < inserts; i++ {
			stmt := fmt.Sprintf("INSERT INTO g (genid, seq, site) VALUES (%d, %d, 'a')", i, i)
			if err := c.Insert(p.ID(), stmt); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < pops; i++ {
			if _, err := c.Pop(lat.ID()); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Pop(cont.ID()); err != nil {
				t.Fatal(err)
			}
		}
		return c.StatsSnapshot().ReadLockAcquisitions
	}
	if got := run(); got != 0 {
		t.Fatalf("took %d read-path locks, want 0", got)
	}
}

// TestCoreSnapshotChurnEquivalence is the concurrent storm: goroutines
// churn producers and continuous consumers (create, pop, close) while
// inserters hammer the same tables, for 1 and 8 shards. Delivery during
// the storm is inherently racy, so phase 1 asserts safety only (no
// races under -race, clean teardown, no read-path locks). Then the
// storm quiesces — every phase-1 resource closed — and a deterministic
// probe set over fresh producers must pop what the reference model pops
// for the same probe, proving the churned-up snapshots and matching
// indexes converged to an empty index.
func TestCoreSnapshotChurnEquivalence(t *testing.T) {
	const (
		churners  = 4
		inserters = 4
		stormOps  = 200
		stormMsgs = 150
		probeMsgs = 100
	)
	tables := []string{"t0", "t1", "t2", "t3"}
	queries := []string{
		"SELECT * FROM %s",
		"SELECT * FROM %s WHERE seq < 50",
		"SELECT * FROM %s WHERE seq >= 50",
		"SELECT * FROM %s WHERE seq = 7 OR site = 'churn'",
	}
	ddl := func(tab string) string {
		return fmt.Sprintf("CREATE TABLE %s (genid INTEGER PRIMARY KEY, seq INTEGER, site CHAR(20))", tab)
	}

	// probe is phase 2: consumers of every query type, fresh producers,
	// a deterministic insert batch, then one pop per consumer. The
	// callbacks bind it to a Core or to the reference model.
	type probeSpec struct {
		query string
		qtype rgma.QueryType
	}
	specs := []probeSpec{
		{"SELECT * FROM t0", rgma.ContinuousQuery},
		{"SELECT * FROM t0 WHERE seq < 50", rgma.ContinuousQuery},
		{"SELECT * FROM t1 WHERE seq >= 50", rgma.ContinuousQuery},
		{"SELECT * FROM t2 WHERE seq = 7 OR seq = 8", rgma.ContinuousQuery},
		{"SELECT * FROM t0 WHERE seq < 25", rgma.LatestQuery},
		{"SELECT * FROM t1", rgma.HistoryQuery},
	}
	probe := func(consume func(string, rgma.QueryType) (int64, error), produce func(string) (int64, error),
		insert func(int64, string) error, pop func(int64) ([]PopTuple, error)) map[int][]PopTuple {
		var probes []int64
		for _, s := range specs {
			id, err := consume(s.query, s.qtype)
			if err != nil {
				t.Fatal(err)
			}
			probes = append(probes, id)
		}
		prods := make(map[string]int64, len(tables))
		for _, tab := range tables {
			id, err := produce(tab)
			if err != nil {
				t.Fatal(err)
			}
			prods[tab] = id
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < probeMsgs; i++ {
			tab := tables[rng.Intn(len(tables))]
			stmt := fmt.Sprintf("INSERT INTO %s (genid, seq, site) VALUES (%d, %d, 'probe')",
				tab, i, rng.Intn(100))
			if err := insert(prods[tab], stmt); err != nil {
				t.Fatal(err)
			}
		}
		got := make(map[int][]PopTuple)
		for i, id := range probes {
			out, err := pop(id)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = out
		}
		return got
	}
	ref := newRefCore(func() sim.Time { return 0 })
	for _, tab := range tables {
		if _, err := ref.CreateTable(ddl(tab)); err != nil {
			t.Fatal(err)
		}
	}
	want := probe(ref.CreateConsumer,
		func(tab string) (int64, error) { return ref.CreateProducer(tab, sim.Second, sim.Second) },
		ref.Insert, ref.Pop)

	for _, shards := range specShards {
		c := New(Config{Shards: shards})
		c.clock = func() sim.Time { return 0 }
		for _, tab := range tables {
			mustCreateTable(t, c, ddl(tab))
		}

		// --- Phase 1: index churn under concurrent inserting.
		var wg sync.WaitGroup
		for g := 0; g < churners; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000 + g)))
				var cns []int64
				for op := 0; op < stormOps; op++ {
					switch rng.Intn(8) {
					case 0, 1, 2: // create a continuous consumer
						q := fmt.Sprintf(queries[rng.Intn(len(queries))], tables[rng.Intn(len(tables))])
						cn, err := c.CreateConsumer(q, rgma.ContinuousQuery, nil)
						if err != nil {
							t.Error(err)
							return
						}
						cns = append(cns, cn.ID())
					case 3, 4: // close one
						if len(cns) == 0 {
							continue
						}
						i := rng.Intn(len(cns))
						if err := c.CloseConsumer(cns[i]); err != nil {
							t.Error(err)
							return
						}
						cns = append(cns[:i], cns[i+1:]...)
					case 5: // producer index churn: create, insert once, close
						p, err := c.CreateProducer(tables[rng.Intn(len(tables))], sim.Second, sim.Second)
						if err != nil {
							t.Error(err)
							return
						}
						stmt := fmt.Sprintf("INSERT INTO %s (genid, seq, site) VALUES (%d, %d, 'churn')",
							p.tableName, rng.Intn(20), rng.Intn(100))
						if err := c.Insert(p.ID(), stmt); err != nil {
							t.Error(err)
							return
						}
						if err := c.CloseProducer(p.ID()); err != nil {
							t.Error(err)
							return
						}
					default: // pop one
						if len(cns) == 0 {
							continue
						}
						if _, err := c.Pop(cns[rng.Intn(len(cns))]); err != nil {
							t.Error(err)
							return
						}
					}
				}
				for _, id := range cns {
					if err := c.CloseConsumer(id); err != nil {
						t.Error(err)
					}
				}
			}(g)
		}
		for g := 0; g < inserters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(2000 + g)))
				tab := tables[g%len(tables)]
				p, err := c.CreateProducer(tab, sim.Second, sim.Second)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < stormMsgs; i++ {
					stmt := fmt.Sprintf("INSERT INTO %s (genid, seq, site) VALUES (%d, %d, 'storm')",
						tab, rng.Intn(20), rng.Intn(100))
					if err := c.Insert(p.ID(), stmt); err != nil {
						t.Error(err)
						return
					}
				}
				if err := c.CloseProducer(p.ID()); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()

		// Quiesced: every storm resource is closed, so the latest/history
		// gathers below see only phase-2 producers and the continuous
		// probes buffer only phase-2 inserts.
		if p, cn := c.RegistryCounts(); p != 0 || cn != 0 {
			t.Fatalf("shards=%d: %d producers, %d consumers survived the storm", shards, p, cn)
		}

		// --- Phase 2: deterministic probe over the quiesced core.
		got := probe(
			func(q string, qt rgma.QueryType) (int64, error) {
				cn, err := c.CreateConsumer(q, qt, nil)
				if err != nil {
					return 0, err
				}
				return cn.ID(), nil
			},
			func(tab string) (int64, error) {
				p, err := c.CreateProducer(tab, sim.Second, sim.Second)
				if err != nil {
					return 0, err
				}
				return p.ID(), nil
			},
			c.Insert, c.Pop)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: post-churn probe pops diverge from the reference model:\n got  %v\n want %v",
				shards, got, want)
		}
		if rl := c.StatsSnapshot().ReadLockAcquisitions; rl != 0 {
			t.Fatalf("shards=%d: %d read-path shard locks", shards, rl)
		}
	}
}
