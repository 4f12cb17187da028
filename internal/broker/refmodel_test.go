package broker

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/selector"
	"gridmon/internal/simproc"
	"gridmon/internal/wire"
)

// refBroker is the executable specification the production broker is
// tested against. It keeps every topic subscription in one list in
// subscribe order, scans it linearly on each publish with the
// interpreted selector evaluator (selector.EvalInterpreted), and keeps
// per-delivery pending state, durable backlogs and queue backlogs in
// plain maps and slices. It has no shards, snapshots, matching index,
// fan-out engine or locks, and it is single-threaded: drive it from one
// goroutine. Memory is unlimited; heap tracks what the production Env
// would hold.
//
// Its output is a transcript: per connection, the non-delivery frames
// in order; per subscription, SubOK and then every delivery in order.
// That is what JMS constrains. Delivery order across different
// subscriptions is not part of the spec (the broker delivers its fast
// set before selector groups, and the fan-out engine batches per
// connection).
type refBroker struct {
	cfg   Config
	now   int64
	out   *transcript
	conns map[ConnID]*refConn

	topicSubs []*refSub // every topic subscription, subscribe order
	durables  map[string]*refDurable
	queues    map[string]*refQueue

	heap    int64
	pending int
	stats   Stats
}

type refConn struct{ subs map[int64]*refSub }

type refSub struct {
	conn    ConnID
	id      int64
	dest    message.Destination
	sel     *selector.Selector
	durable *refDurable
	nextTag int64
	pending map[int64]int64 // tag -> heap bytes charged
}

type refDurable struct {
	name    string
	topic   string
	sel     *selector.Selector
	active  *refSub
	backlog []storedMsg
}

type refQueue struct {
	subs    []*refSub
	rrNext  int
	backlog []storedMsg
}

func newRefBroker(cfg Config) *refBroker {
	if cfg.ID == "" {
		cfg.ID = "broker"
	}
	return &refBroker{
		cfg:      cfg,
		out:      newTranscript(),
		conns:    make(map[ConnID]*refConn),
		durables: make(map[string]*refDurable),
		queues:   make(map[string]*refQueue),
	}
}

// brokerAPI is the surface the storms drive: the production broker and
// the reference model both implement it.
type brokerAPI interface {
	OnConnOpen(ConnID) error
	OnConnClose(ConnID)
	OnFrame(ConnID, wire.Frame)
}

func (r *refBroker) OnConnOpen(id ConnID) error {
	if _, dup := r.conns[id]; dup {
		panic(fmt.Sprintf("refBroker: duplicate conn id %d", id))
	}
	r.conns[id] = &refConn{subs: make(map[int64]*refSub)}
	r.stats.Connections = len(r.conns)
	r.stats.PeakConnections = max(r.stats.PeakConnections, len(r.conns))
	return nil
}

func (r *refBroker) OnConnClose(id ConnID) {
	c := r.conns[id]
	if c == nil {
		return
	}
	delete(r.conns, id)
	r.stats.Connections = len(r.conns)
	ids := make([]int64, 0, len(c.subs))
	for sid := range c.subs {
		ids = append(ids, sid)
	}
	slices.Sort(ids)
	for _, sid := range ids {
		r.drop(c.subs[sid], false)
	}
}

func (r *refBroker) OnFrame(id ConnID, f wire.Frame) {
	c := r.conns[id]
	if c == nil {
		return
	}
	switch v := f.(type) {
	case wire.Connect:
		r.out.control(id, wire.Connected{BrokerID: r.cfg.ID})
	case wire.Subscribe:
		r.subscribe(id, c, v)
	case wire.Unsubscribe:
		if sub := c.subs[v.SubID]; sub != nil {
			delete(c.subs, v.SubID)
			r.drop(sub, true)
		}
	case wire.Publish:
		r.stats.Published++
		r.publish(v.Msg)
		r.out.control(id, wire.PubAck{Seq: v.Seq})
	case wire.Ack:
		r.ack(c, v)
	case *wire.Ack:
		r.ack(c, *v)
	case wire.Ping:
		r.out.control(id, wire.Pong{Token: v.Token})
	case wire.Close:
		r.OnConnClose(id)
		r.out.closeConn(id)
	}
}

func (r *refBroker) subscribe(id ConnID, c *refConn, v wire.Subscribe) {
	if _, dup := c.subs[v.SubID]; dup {
		r.OnConnClose(id)
		r.out.closeConn(id)
		return
	}
	sel, err := selector.Parse(v.Selector)
	if err != nil {
		r.out.subOK(id, -v.SubID)
		return
	}
	sub := &refSub{conn: id, id: v.SubID, dest: v.Dest, sel: sel, pending: make(map[int64]int64)}
	switch v.Dest.Kind {
	case message.TopicKind:
		if v.Durable && v.DurableName != "" {
			d := r.durables[v.DurableName]
			switch {
			case d == nil:
				d = &refDurable{name: v.DurableName, topic: v.Dest.Name, sel: sel}
				r.durables[d.name] = d
			case d.active != nil:
				r.out.subOK(id, -v.SubID)
				return
			case d.topic != v.Dest.Name || d.sel.String() != sel.String():
				// JMS: changing topic or selector recreates the durable.
				r.freeStored(d.backlog)
				d.backlog, d.topic, d.sel = nil, v.Dest.Name, sel
			}
			d.active, sub.durable = sub, d
		}
		r.topicSubs = append(r.topicSubs, sub)
		c.subs[v.SubID] = sub
		r.out.subOK(id, v.SubID)
		if d := sub.durable; d != nil {
			backlog := d.backlog
			d.backlog = nil
			for _, sm := range backlog {
				r.heap -= sm.cost
				r.deliver(sub, sm.msg, sm.cost)
			}
		}
	case message.QueueKind:
		q := r.queues[v.Dest.Name]
		if q == nil {
			q = &refQueue{}
			r.queues[v.Dest.Name] = q
		}
		q.subs = append(q.subs, sub)
		c.subs[v.SubID] = sub
		r.out.subOK(id, v.SubID)
		r.drain(q)
	default:
		r.out.subOK(id, -v.SubID)
	}
}

// drop removes a subscription; unsubscribe also destroys its durable.
func (r *refBroker) drop(sub *refSub, unsubscribe bool) {
	for _, cost := range sub.pending {
		r.heap -= cost
	}
	r.pending -= len(sub.pending)
	sub.pending = nil
	switch sub.dest.Kind {
	case message.TopicKind:
		r.topicSubs = slices.DeleteFunc(r.topicSubs, func(s *refSub) bool { return s == sub })
		if d := sub.durable; d != nil && d.active == sub {
			d.active = nil
			if unsubscribe {
				r.freeStored(d.backlog)
				delete(r.durables, d.name)
			}
		}
	case message.QueueKind:
		q := r.queues[sub.dest.Name]
		i := slices.Index(q.subs, sub)
		q.subs = slices.Delete(q.subs, i, i+1)
		if q.rrNext > i {
			q.rrNext--
		}
	}
}

func (r *refBroker) publish(m *message.Message) {
	if m.Expiration > 0 && r.now > m.Expiration {
		r.stats.Expired++
		return
	}
	cost := int64(m.EncodedSize()) + r.cfg.MemPerPendingOverhead
	switch m.Dest.Kind {
	case message.TopicKind:
		for _, sub := range r.topicSubs {
			if sub.dest.Name != m.Dest.Name {
				continue
			}
			if sub.sel.EvalInterpreted(m) == selector.TriTrue {
				r.deliver(sub, m, cost)
			} else {
				r.stats.SelectorRejected++
			}
		}
		for _, d := range r.durables {
			if d.active == nil && d.topic == m.Dest.Name && d.sel.EvalInterpreted(m) == selector.TriTrue {
				if r.cfg.MaxDurableBacklog > 0 && len(d.backlog) >= r.cfg.MaxDurableBacklog {
					r.stats.DroppedBacklog++
					continue
				}
				r.heap += cost
				d.backlog = append(d.backlog, storedMsg{msg: m, cost: cost})
			}
		}
	case message.QueueKind:
		q := r.queues[m.Dest.Name]
		if q == nil {
			q = &refQueue{}
			r.queues[m.Dest.Name] = q
		}
		if r.cfg.MaxQueueBacklog > 0 && len(q.backlog) >= r.cfg.MaxQueueBacklog {
			r.stats.DroppedBacklog++
			return
		}
		r.heap += cost
		q.backlog = append(q.backlog, storedMsg{msg: m, cost: cost})
		r.drain(q)
	}
}

// drain hands queued messages to consumers round-robin: each message
// goes to the next consumer whose selector accepts it; messages no
// consumer accepts stay queued in order.
func (r *refBroker) drain(q *refQueue) {
	if len(q.subs) == 0 {
		return
	}
	var kept []storedMsg
	for _, sm := range q.backlog {
		delivered := false
		for i := range q.subs {
			sub := q.subs[(q.rrNext+i)%len(q.subs)]
			if sub.sel.EvalInterpreted(sm.msg) == selector.TriTrue {
				q.rrNext = (q.rrNext + i + 1) % len(q.subs)
				r.heap -= sm.cost
				r.deliver(sub, sm.msg, sm.cost)
				delivered = true
				break
			}
		}
		if !delivered {
			kept = append(kept, sm)
		}
	}
	q.backlog = kept
}

func (r *refBroker) deliver(sub *refSub, m *message.Message, cost int64) {
	if r.cfg.MaxPendingPerSub > 0 && len(sub.pending) >= r.cfg.MaxPendingPerSub {
		r.stats.DroppedBacklog++
		return
	}
	sub.nextTag++
	sub.pending[sub.nextTag] = cost
	r.heap += cost
	r.pending++
	r.stats.Delivered++
	r.out.deliver(sub.conn, sub.id, sub.nextTag, m.ID)
}

func (r *refBroker) ack(c *refConn, v wire.Ack) {
	sub := c.subs[v.SubID]
	if sub == nil {
		return
	}
	for _, tag := range v.Tags {
		if cost, ok := sub.pending[tag]; ok {
			delete(sub.pending, tag)
			r.heap -= cost
			r.pending--
			r.stats.Acked++
		}
	}
}

func (r *refBroker) freeStored(backlog []storedMsg) {
	for _, sm := range backlog {
		r.heap -= sm.cost
	}
}

// topics lists the topics with at least one subscription, sorted.
func (r *refBroker) topics() []string {
	var out []string
	for _, sub := range r.topicSubs {
		if !slices.Contains(out, sub.dest.Name) {
			out = append(out, sub.dest.Name)
		}
	}
	sort.Strings(out)
	return out
}

// subKey names one subscription in a transcript.
type subKey struct {
	conn ConnID
	sub  int64
}

// transcript is a broker's observable output in the form the spec
// constrains (see refBroker). It also keeps, per connection, the
// deliveries not yet acknowledged by a storm driver. Safe for
// concurrent use.
type transcript struct {
	mu      sync.Mutex
	ctrl    map[ConnID][]string
	subs    map[subKey][]string
	msgs    map[subKey][]string // delivered message IDs only
	unacked map[ConnID][]wire.Ack
}

func newTranscript() *transcript {
	return &transcript{
		ctrl:    make(map[ConnID][]string),
		subs:    make(map[subKey][]string),
		msgs:    make(map[subKey][]string),
		unacked: make(map[ConnID][]wire.Ack),
	}
}

func (tr *transcript) control(c ConnID, f wire.Frame) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ctrl[c] = append(tr.ctrl[c], fmt.Sprintf("%T%+v", f, f))
}

func (tr *transcript) closeConn(c ConnID) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ctrl[c] = append(tr.ctrl[c], "close")
}

// subOK records a SubOK; a negative id is a refusal.
func (tr *transcript) subOK(c ConnID, id int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if id < 0 {
		k := subKey{c, -id}
		tr.subs[k] = append(tr.subs[k], "refused")
		return
	}
	k := subKey{c, id}
	tr.subs[k] = append(tr.subs[k], "ok")
}

func (tr *transcript) deliver(c ConnID, sub, tag int64, msgID string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	k := subKey{c, sub}
	tr.subs[k] = append(tr.subs[k], fmt.Sprintf("tag=%d id=%s", tag, msgID))
	tr.msgs[k] = append(tr.msgs[k], msgID)
	tr.unacked[c] = append(tr.unacked[c], wire.Ack{SubID: sub, Tags: []int64{tag}})
}

// record files one frame sent by the production broker.
func (tr *transcript) record(c ConnID, f wire.Frame) {
	switch v := f.(type) {
	case *wire.Deliver:
		tr.deliver(c, v.SubID, v.Tag, v.Msg.ID)
	case *wire.DeliverBatch:
		for _, e := range v.Entries {
			tr.deliver(c, e.SubID, e.Tag, v.Msg.ID)
		}
	case wire.SubOK:
		tr.subOK(c, v.SubID)
	default:
		tr.control(c, f)
	}
}

// takeAcks returns (and forgets) up to n of conn c's unacknowledged
// deliveries, oldest first; n <= 0 takes all of them.
func (tr *transcript) takeAcks(c ConnID, n int) []wire.Ack {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	acks := tr.unacked[c]
	if n <= 0 || n > len(acks) {
		n = len(acks)
	}
	tr.unacked[c] = acks[n:]
	return acks[:n]
}

// messages returns conn c's delivered message IDs per subscription.
func (tr *transcript) messages(c ConnID) map[int64][]string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make(map[int64][]string)
	for k, ids := range tr.msgs {
		if k.conn == c {
			out[k.sub] = slices.Clone(ids)
		}
	}
	return out
}

// diff reports the first difference between two transcripts, or "".
func (tr *transcript) diff(want *transcript) string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	want.mu.Lock()
	defer want.mu.Unlock()
	for c := range union(tr.ctrl, want.ctrl) {
		if g, w := tr.ctrl[c], want.ctrl[c]; !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("conn %d control frames:\n got  %v\n want %v", c, g, w)
		}
	}
	for k := range union(tr.subs, want.subs) {
		if g, w := tr.subs[k], want.subs[k]; !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("conn %d sub %d:\n got  %v\n want %v", k.conn, k.sub, g, w)
		}
	}
	return ""
}

func union[K comparable, V any](a, b map[K]V) map[K]bool {
	out := make(map[K]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// specEnv is the production broker's Env in spec tests: concurrency-
// safe, recording every frame into a transcript, with memory backed by
// simproc.SharedHeap (which panics on an unbalanced free). serial makes
// it a SerialEnv; otherwise it releases pooled frames after recording
// them, as a transport would.
type specEnv struct {
	serial bool
	out    *transcript
	heap   *simproc.SharedHeap
	native *simproc.SharedHeap
}

func newSpecEnv(serial bool) *specEnv {
	return &specEnv{
		serial: serial,
		out:    newTranscript(),
		heap:   simproc.NewSharedHeap("spec-heap", 0, 0),
		native: simproc.NewSharedHeap("spec-native", 0, 0),
	}
}

func (e *specEnv) SerialEnv() bool { return e.serial }
func (e *specEnv) Now() int64      { return 0 }
func (e *specEnv) Send(c ConnID, f wire.Frame) {
	e.out.record(c, f)
	if e.serial {
		return
	}
	switch v := f.(type) {
	case *wire.Deliver:
		wire.PutDeliver(v)
	case *wire.DeliverBatch:
		wire.PutDeliverBatch(v)
	}
}
func (e *specEnv) CloseConn(c ConnID)  { e.out.closeConn(c) }
func (e *specEnv) AllocConn() error    { return e.native.Alloc(1) }
func (e *specEnv) FreeConn()           { e.native.Free(1) }
func (e *specEnv) Alloc(n int64) error { return e.heap.Alloc(n) }
func (e *specEnv) Free(n int64)        { e.heap.Free(n) }

// drainAcks feeds every recorded, unacknowledged delivery of conn c
// back to b as one Ack frame each.
func (e *specEnv) drainAcks(b brokerAPI, c ConnID) {
	for _, a := range e.out.takeAcks(c, 0) {
		b.OnFrame(c, &a)
	}
}

// variant is one production configuration the storms run against the
// reference model: shard count, fan-out threshold (1 sends every
// fan-out through the worker pool) and Env kind.
type variant struct {
	shards, threshold int
	serialEnv         bool
}

func (v variant) String() string {
	s := fmt.Sprintf("shards=%d", v.shards)
	if v.threshold > 0 {
		s += fmt.Sprintf("/threshold=%d", v.threshold)
	}
	if v.serialEnv {
		s += "/serial-env"
	}
	return s
}

// newBroker builds the variant's broker from a base configuration.
func (v variant) newBroker(cfg Config) (*Broker, *specEnv) {
	cfg.Shards = v.shards
	cfg.ParallelFanoutThreshold = v.threshold
	env := newSpecEnv(v.serialEnv)
	return New(env, cfg), env
}

// allVariants covers shards 1 and 8, the default fan-out threshold and
// threshold 1, and a serial Env.
var allVariants = []variant{
	{shards: 1}, {shards: 8},
	{shards: 1, threshold: 1}, {shards: 8, threshold: 1},
	{shards: 1, serialEnv: true}, {shards: 8, serialEnv: true},
}

// concurrentVariants are the variants whose Env may be called from
// several goroutines.
var concurrentVariants = allVariants[:4]

// specRig drives the reference model and one broker per variant with
// the same operations from one goroutine.
type specRig struct {
	ref      *refBroker
	variants []variant
	brokers  []*Broker
	envs     []*specEnv
}

func newSpecRig(cfg Config, variants []variant) *specRig {
	rig := &specRig{ref: newRefBroker(cfg), variants: variants}
	for _, v := range variants {
		b, env := v.newBroker(cfg)
		rig.brokers = append(rig.brokers, b)
		rig.envs = append(rig.envs, env)
	}
	return rig
}

// do applies one operation to the model and every broker.
func (rig *specRig) do(op func(b brokerAPI)) {
	op(rig.ref)
	for _, b := range rig.brokers {
		op(b)
	}
}

// check requires every broker to match the model: transcript,
// mode-independent stats, pending count, heap usage and topic set.
func (rig *specRig) check(t *testing.T, label string) {
	t.Helper()
	for i, b := range rig.brokers {
		checkAgainstSpec(t, fmt.Sprintf("%s %v", label, rig.variants[i]), b, rig.envs[i], rig.ref)
	}
}

func checkAgainstSpec(t *testing.T, label string, b *Broker, env *specEnv, ref *refBroker) {
	t.Helper()
	if d := env.out.diff(ref.out); d != "" {
		t.Fatalf("%s: transcript differs from the reference model: %s", label, d)
	}
	if got := clearLockMeters(b.Stats()); got != ref.stats {
		t.Fatalf("%s: stats\n got  %+v\n want %+v", label, got, ref.stats)
	}
	if got := b.PendingCount(); got != ref.pending {
		t.Fatalf("%s: pending %d, want %d", label, got, ref.pending)
	}
	if got := env.heap.Used(); got != ref.heap {
		t.Fatalf("%s: heap %d, want %d", label, got, ref.heap)
	}
	if got, want := b.Topics(), ref.topics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: topics %v, want %v", label, got, want)
	}
}

// clearLockMeters zeroes the implementation meters — shard locks,
// matching index, fan-out engine — which the reference model does not
// have. Everything else in Stats, including SelectorRejected, which
// the indexed path bulk-accounts for skipped groups, is specified.
func clearLockMeters(s Stats) Stats {
	s.ReadLockAcquisitions = 0
	s.ShardLockAcquisitions = 0
	s.ShardLockContended = 0
	s.ShardLockWaitNs = 0
	s.MatchProgramEvals = 0
	s.MatchIndexCandidates = 0
	s.MatchGroupsSkipped = 0
	s.MatchDurablesSkipped = 0
	s.FanoutTasks = 0
	s.FanoutChunks = 0
	s.FanoutInlineRuns = 0
	s.EgressFlushes = 0
	s.EgressFrames = 0
	return s
}
