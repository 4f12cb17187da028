// Destination layer, part 6: the parallel fan-out engine. On the
// snapshot read path the publisher evaluates matching exactly as the
// serial loop does (selectors once per group, durables inline), but
// matched subscriptions are collected into a pooled per-publish plan
// instead of being delivered one Deliver frame at a time. Below
// Config.ParallelFanoutThreshold the plan replays the serial per-frame
// loop in the exact matched order — byte-identical behaviour, so
// single-subscriber latency never pays for the engine. At or above the
// threshold the plan is grouped into per-connection *runs* (preserving
// matched order within each connection), the runs are chunked across a
// bounded worker pool (internal/fanout), and each multi-delivery run is
// emitted as one wire.DeliverBatch splicing the frozen message's cached
// encoding per entry at the transport.
//
// Ordering contract: per-connection delivery order is preserved by
// construction — a connection's subscriptions live in exactly one run,
// runs keep matched order, and one worker owns a whole run. What the
// engine relaxes is cross-connection interleaving and the emission
// point: deliverLive emits inside the sub.mu hold (tag-ordered per
// subscription even across racing publishers), while a batched run
// allocates tags under each sub.mu in turn and emits after release. Tag
// *allocation* order is still serialized per subscription; with
// concurrent publishers to the same subscription two batches may reach
// the transport in the opposite order of their tags — within one
// publisher, Run blocks before PubAck, so per-publisher order (all JMS
// promises) holds. This is the same relaxation the Forwarder contract
// documents for the lock-free read path.
//
// The engine requires an Env that is safe for concurrent use, because
// chunk workers call Env.Alloc/Send; a SerialEnv (the simulator) never
// engages it.

package broker

import (
	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// defaultParallelFanoutThreshold is the matched-target count that
// engages run grouping and the worker pool when
// Config.ParallelFanoutThreshold is zero. Below it, plan execution is
// the serial loop verbatim.
const defaultParallelFanoutThreshold = 64

// fanRun is one connection's slice of a fan-out: every matched
// subscription of that connection, in matched order.
type fanRun struct {
	connID ConnID
	subs   []*subscription
}

// fanPlan is the pooled per-publish collection scratch: the flat
// matched-target list (serial order), and the run/grouping storage
// reused across publishes. Only the publishing goroutine touches a
// plan; workers see only the immutable runs slice during pool.Run.
type fanPlan struct {
	flat   []*subscription
	runs   []fanRun
	byConn map[ConnID]int
}

// getFanPlan returns an empty plan from the broker's pool.
func (b *Broker) getFanPlan() *fanPlan {
	p, _ := b.fanPlans.Get().(*fanPlan)
	if p == nil {
		p = &fanPlan{byConn: make(map[ConnID]int)}
	}
	return p
}

// putFanPlan clears subscription pointers (a pooled plan must not pin
// dropped subscriptions) and recycles the plan.
func (b *Broker) putFanPlan(p *fanPlan) {
	for i := range p.flat {
		p.flat[i] = nil
	}
	p.flat = p.flat[:0]
	for i := range p.runs {
		r := &p.runs[i]
		for j := range r.subs {
			r.subs[j] = nil
		}
		r.subs = r.subs[:0]
	}
	p.runs = p.runs[:0]
	clear(p.byConn)
	b.fanPlans.Put(p)
}

// add records one matched subscription, in matched (serial) order.
func (p *fanPlan) add(sub *subscription) { p.flat = append(p.flat, sub) }

// group partitions the flat matched list into per-connection runs,
// preserving matched order within each connection. Run order is
// first-appearance order of connections.
func (p *fanPlan) group() {
	for _, sub := range p.flat {
		id := sub.conn.id
		ri, ok := p.byConn[id]
		if !ok {
			ri = len(p.runs)
			p.byConn[id] = ri
			if ri < cap(p.runs) {
				p.runs = p.runs[:ri+1]
				p.runs[ri].connID = id
			} else {
				p.runs = append(p.runs, fanRun{connID: id})
			}
		}
		p.runs[ri].subs = append(p.runs[ri].subs, sub)
	}
}

// execFanPlan delivers a collected plan. Below the threshold it IS the
// serial loop (per-frame deliverCost in matched order); at or above it,
// runs execute across the fan-out pool with batched emission.
func (b *Broker) execFanPlan(p *fanPlan, m *message.Message, cost int64) {
	if len(p.flat) == 0 {
		return
	}
	if len(p.flat) < b.fanThreshold {
		b.stats.fanoutInlineRuns.Add(1)
		for _, sub := range p.flat {
			b.deliverCost(sub, m, cost)
		}
		return
	}
	p.group()
	runs := p.runs
	chunks := len(runs)
	if w := b.fanPool.Workers(); chunks > w {
		chunks = w
	}
	b.stats.fanoutTasks.Add(1)
	b.stats.fanoutChunks.Add(uint64(chunks))
	n := len(runs)
	b.fanPool.Run(chunks, func(ci int) {
		// Contiguous whole-run spans: a connection never splits across
		// chunks, so per-connection order survives parallel execution.
		for i := ci * n / chunks; i < (ci+1)*n/chunks; i++ {
			b.deliverRun(&runs[i], m, cost)
		}
	})
}

// deliverRun emits one connection's run. A single-delivery run takes
// the exact per-frame path; longer runs allocate tags per subscription
// under each leaf lock in turn, then emit one DeliverBatch for the
// whole connection (see the package comment on the emission-ordering
// relaxation). Durable subscriptions leave the batch: their delivery
// is decided under the durable's lock (deliverDurable). Skipped
// subscriptions (detached, backlog cap, OOM)
// account exactly as the serial loop does; a run whose every delivery
// was skipped releases its batch here — otherwise the transport that
// consumes the batch releases it, the same exactly-once ownership rule
// pooled Deliver frames follow.
func (b *Broker) deliverRun(r *fanRun, m *message.Message, cost int64) {
	if len(r.subs) == 1 {
		b.deliverCost(r.subs[0], m, cost)
		return
	}
	batch := wire.GetDeliverBatch()
	batch.Msg = m
	for _, sub := range r.subs {
		if sub.durable != nil {
			b.deliverDurable(sub.durable, m, cost)
			continue
		}
		sub.mu.Lock()
		if sub.detached {
			sub.mu.Unlock()
			continue
		}
		if b.cfg.MaxPendingPerSub > 0 && len(sub.pending) >= b.cfg.MaxPendingPerSub {
			sub.mu.Unlock()
			b.stats.droppedBacklog.Add(1)
			continue
		}
		if err := b.env.Alloc(cost); err != nil {
			sub.mu.Unlock()
			b.stats.droppedOOM.Add(1)
			continue
		}
		sub.nextTag++
		tag := sub.nextTag
		sub.pending[tag] = pendingDelivery{tag: tag, cost: cost}
		sub.mu.Unlock()
		b.stats.delivered.Add(1)
		b.stats.pending.Add(1)
		batch.Entries = append(batch.Entries, wire.DeliverEntry{SubID: sub.id, Tag: tag})
	}
	if len(batch.Entries) == 0 {
		wire.PutDeliverBatch(batch)
		return
	}
	b.stats.egressFlushes.Add(1)
	b.stats.egressFrames.Add(uint64(len(batch.Entries)))
	b.env.Send(r.connID, batch)
}
