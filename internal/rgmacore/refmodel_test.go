package rgmacore

import (
	"errors"
	"slices"
	"sort"
	"strings"

	"gridmon/internal/rgma"
	"gridmon/internal/sim"
	"gridmon/internal/sqlmini"
)

// refCore is the executable specification the Core is tested against.
// It has no shards, snapshots, matching index or locks: each insert
// scans the table's continuous consumers in registration order and
// evaluates every WHERE with sqlmini's interpreted Expr.Eval; each
// producer keeps every tuple it was sent, and latest/history queries
// apply the retention periods to that full list at query time. It
// shares only SQL parsing (sqlmini.Parse, ReorderInsert) with the Core,
// and is single-threaded.
type refCore struct {
	now         func() sim.Time
	maxBuffered int
	nextID      int64
	tables      map[string]*sqlmini.Table
	producers   []*refProducer // registration order
	consumers   []*refConsumer // registration order
	stats       Stats
}

type refProducer struct {
	id              int64
	table           *sqlmini.Table
	latest, history sim.Time
	tuples          []rgma.Tuple
}

type refConsumer struct {
	id    int64
	table *sqlmini.Table
	where sqlmini.Expr
	qtype rgma.QueryType
	buf   []PopTuple
}

func newRefCore(now func() sim.Time) *refCore {
	return &refCore{now: now, maxBuffered: DefaultMaxBuffered, tables: make(map[string]*sqlmini.Table)}
}

var errRef = errors.New("refCore: refused")

func (r *refCore) CreateTable(sql string) (string, error) {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return "", err
	}
	ct, ok := st.(sqlmini.CreateTable)
	if !ok {
		return "", errRef
	}
	name := ct.Table.Name
	if old, ok := r.tables[name]; ok {
		if old.Name == ct.Table.Name && slices.Equal(old.Columns, ct.Table.Columns) {
			return name, nil
		}
		return "", errRef
	}
	r.tables[name] = &ct.Table
	return name, nil
}

func (r *refCore) CreateProducer(table string, latest, history sim.Time) (int64, error) {
	r.nextID++
	tab := r.tables[table]
	if tab == nil {
		return 0, errRef
	}
	if latest <= 0 {
		latest = DefaultLatestRetention
	}
	if history <= 0 {
		history = DefaultHistoryRetention
	}
	r.producers = append(r.producers, &refProducer{id: r.nextID, table: tab, latest: latest, history: history})
	r.stats.Producers++
	return r.nextID, nil
}

func (r *refCore) CloseProducer(id int64) error {
	i := slices.IndexFunc(r.producers, func(p *refProducer) bool { return p.id == id })
	if i < 0 {
		return errRef
	}
	r.producers = slices.Delete(r.producers, i, i+1)
	r.stats.Producers--
	return nil
}

func (r *refCore) CreateConsumer(query string, qtype rgma.QueryType) (int64, error) {
	r.nextID++
	sel, err := rgma.ParseQuery(query)
	if err != nil {
		return 0, err
	}
	tab := r.tables[sel.Table]
	if tab == nil {
		return 0, errRef
	}
	r.consumers = append(r.consumers, &refConsumer{id: r.nextID, table: tab, where: sel.Where, qtype: qtype})
	r.stats.Consumers++
	return r.nextID, nil
}

func (r *refCore) CloseConsumer(id int64) error {
	i := slices.IndexFunc(r.consumers, func(cn *refConsumer) bool { return cn.id == id })
	if i < 0 {
		return errRef
	}
	r.consumers = slices.Delete(r.consumers, i, i+1)
	r.stats.Consumers--
	return nil
}

func (cn *refConsumer) matches(row sqlmini.Row) bool {
	return cn.where == nil || cn.where.Eval(cn.table, row) == 1
}

func (r *refCore) Insert(producerID int64, sql string) error {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return err
	}
	ins, ok := st.(sqlmini.Insert)
	if !ok {
		return errRef
	}
	i := slices.IndexFunc(r.producers, func(p *refProducer) bool { return p.id == producerID })
	if i < 0 {
		return errRef
	}
	p := r.producers[i]
	row, err := sqlmini.ReorderInsert(p.table, ins)
	if err != nil {
		return err
	}
	now := r.now()
	p.tuples = append(p.tuples, rgma.Tuple{Row: row, SentAt: now, InsertedAt: now})
	r.stats.Inserts++
	for _, cn := range r.consumers {
		if cn.qtype != rgma.ContinuousQuery || cn.table != p.table || !cn.matches(row) {
			continue
		}
		r.stats.TuplesStreamed++
		if r.maxBuffered > 0 && len(cn.buf) >= r.maxBuffered {
			cn.buf = cn.buf[1:]
			r.stats.TuplesDropped++
		}
		cn.buf = append(cn.buf, refPop(row, now))
	}
	return nil
}

func (r *refCore) Pop(id int64) ([]PopTuple, error) {
	i := slices.IndexFunc(r.consumers, func(cn *refConsumer) bool { return cn.id == id })
	if i < 0 {
		return nil, errRef
	}
	cn := r.consumers[i]
	r.stats.Pops++
	var out []PopTuple
	if cn.qtype == rgma.ContinuousQuery {
		out, cn.buf = cn.buf, nil
	} else {
		now := r.now()
		for _, p := range r.producers {
			if p.table != cn.table {
				continue
			}
			var tuples []rgma.Tuple
			if cn.qtype == rgma.LatestQuery {
				tuples = p.latestAt(now)
			} else {
				tuples = p.historyAt(now)
			}
			for _, t := range tuples {
				if cn.matches(t.Row) {
					out = append(out, refPop(t.Row, t.InsertedAt))
				}
			}
		}
	}
	r.stats.TuplesPopped += uint64(len(out))
	return out, nil
}

// historyAt is every tuple within the history retention period, in
// insert order.
func (p *refProducer) historyAt(now sim.Time) []rgma.Tuple {
	var out []rgma.Tuple
	for _, t := range p.tuples {
		if now-t.InsertedAt <= p.history {
			out = append(out, t)
		}
	}
	return out
}

// latestAt is, per primary key, the most recent tuple if it is within
// the latest retention period, in primary-key order. A table without a
// primary key keys on the whole row.
func (p *refProducer) latestAt(now sim.Time) []rgma.Tuple {
	byKey := make(map[string]rgma.Tuple)
	for _, t := range p.tuples {
		byKey[p.key(t.Row)] = t
	}
	keys := make([]string, 0, len(byKey))
	for k, t := range byKey {
		if now-t.InsertedAt <= p.latest {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]rgma.Tuple, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

func (p *refProducer) key(row sqlmini.Row) string {
	cols := p.table.PrimaryKey()
	if len(cols) == 0 {
		cols = make([]int, len(row))
		for i := range cols {
			cols[i] = i
		}
	}
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = row[c].String()
	}
	return strings.Join(parts, "|")
}

func refPop(row sqlmini.Row, at sim.Time) PopTuple {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = v.String()
	}
	return PopTuple{Row: cells, InsertedAt: int64(at)}
}

// specStats zeroes the implementation meters — read locks and the
// matching index — which the reference model does not have. Everything
// else, TuplesStreamed above all, is specified.
func specStats(s Stats) Stats {
	s.ReadLockAcquisitions = 0
	s.MatchProgramEvals = 0
	s.MatchIndexCandidates = 0
	s.MatchConsumersSkipped = 0
	return s
}

// specShards are the shard counts the storms run against the model.
var specShards = []int{1, 8}
