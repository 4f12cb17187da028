package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// workload is one traffic mix. Rates are per second at scale 1; the
// smoke tests shrink them with scale.
type workload struct {
	name string
	rgma bool

	// JMS: one publisher connection sends gridgen monitoring samples,
	// cycling through the generators in a seeded order, at rate msg/s; one
	// subscriber connection
	// holds catchAll subscriptions with the paper's selector plus, when
	// perGen, one "id = g" subscription per generator.
	generators int
	rate       float64
	catchAll   int
	perGen     bool

	// R-GMA: batches of batchSize INSERTs at rate tuples/s; siteQueries
	// continuous "site = ..." queries beside one catch-all, and a latest
	// query popped popRate times a second.
	batchSize   int
	siteQueries int
	popRate     float64
}

const (
	topicName = "power.monitoring"
	powerCut  = 490.0
	tableSQL  = "CREATE TABLE generator (genid INTEGER PRIMARY KEY, seq INTEGER, power DOUBLE PRECISION, site CHAR(20))"
)

var workloads = []workload{
	{name: "monitor", generators: 500, rate: 2000, catchAll: 1, perGen: true},
	{name: "fanout", generators: 500, rate: 20, catchAll: 1000},
	{name: "rgma", rgma: true, generators: 500, rate: 5000, batchSize: 10, siteQueries: 50, popRate: 50},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// inputs is everything a workload generates from its seed. The program
// sees only these values; the oracle recomputes expectations from them
// arithmetically, never through the selector or SQL engines it checks.
type inputs struct {
	seed int64
	// order[s % G] is the generator that sends sequence number s; pos is
	// its inverse, so generator g sends s = pos[g] + k*G.
	order []int
	pos   []int
}

func newInputs(w workload, seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, order: r.Perm(w.generators), pos: make([]int, w.generators)}
	for i, g := range in.order {
		in.pos[g] = i
	}
	return in
}

// gen is the generator that sends sequence number s.
func (in *inputs) gen(s int64) int { return in.order[s%int64(len(in.order))] }

// power is tuple s's power reading, drawn uniformly from [450, 600) in
// hundredths from the seed, so about 73% of readings exceed powerCut.
func (in *inputs) power(s int64) float64 {
	x := splitmix(uint64(in.seed)*0x9e3779b97f4a7c15 ^ uint64(s))
	return 450 + float64(x%15000)/100
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// site is generator g's site name; the first siteQueries sites each get
// a continuous query.
func site(g int) string { return fmt.Sprintf("site-%04d", g) }

// insertSQL is tuple s's INSERT statement.
func (in *inputs) insertSQL(s int64) string {
	g := in.gen(s)
	return "INSERT INTO generator (genid, seq, power, site) VALUES (" +
		strconv.Itoa(g) + ", " + strconv.FormatInt(s, 10) + ", " +
		strconv.FormatFloat(in.power(s), 'f', 2, 64) + ", '" + site(g) + "')"
}

// expected counts how many of the first n sequence numbers generator g
// sends.
func (in *inputs) expected(g int, n int64) int64 {
	p := int64(in.pos[g])
	if n <= p {
		return 0
	}
	return (n-p-1)/int64(len(in.order)) + 1
}
