// Destination layer, part 4: durable subscriptions. The name → state
// directory lives on the Broker (a durable can be recreated on a topic
// that hashes to a different shard), serialized by durableMu; the state
// itself — backlog, active consumer, by-topic index membership — is
// guarded by the shard of the durable's current topic.

package broker

import (
	"sync"

	"gridmon/internal/message"
	"gridmon/internal/selector"
	"gridmon/internal/wire"
)

type durableState struct {
	name string
	// topic and sel are rewritten only while the durable is held via
	// durableMu; topic is additionally guarded by mu because a stale
	// snapshot route can carry a store into a durable that has since
	// moved to another topic.
	topic string
	sel   *selector.Selector

	// mu guards the delivery state below and is held across every
	// delivery to the active subscription (lock order mu → sub.mu).
	// Attach, detach and publish therefore agree on each message: it
	// is either delivered to the subscription active when the publisher
	// takes mu, or appended to the backlog, which the next attach
	// replays before any later message is delivered live. active is
	// written under both the topic shard's lock and mu; holding either
	// is enough to read it.
	mu        sync.Mutex
	active    *subscription // nil while disconnected
	replaying bool          // an attach has sent SubOK but not yet replayed the backlog
	gone      bool          // unsubscribed: stale routes must not buffer into it
	backlog   []storedMsg
}

// attachDurable resolves (creating on first use) the durable state for a
// subscription, applying the JMS recreate-on-change rule: a durable
// resubscribed with a different topic or selector drops its backlog and,
// on a topic change, moves to the new topic's shard. It fails when the
// durable name is already active on another subscription (JMS allows one
// active consumer per durable subscription). The caller holds durableMu
// and, on success, activates the durable under the topic shard's lock
// (activateDurable) — until then it keeps buffering, so no message is
// lost in between.
func (b *Broker) attachDurable(sub *subscription) (*durableState, bool) {
	d := b.durables[sub.durableName]
	if d == nil {
		d = &durableState{name: sub.durableName, topic: sub.dest.Name, sel: sub.sel}
		b.durables[sub.durableName] = d
		sh := b.shardFor(d.topic)
		b.lockShard(sh)
		sh.durablesByTopic[d.topic] = append(sh.durablesByTopic[d.topic], d)
		if j := b.loadJournal(); j != nil {
			j.DurableSubscribed(d.name, d.topic, d.sel.String())
		}
		b.refreshTopicRoute(sh, d.topic)
		sh.mu.Unlock()
		return d, true
	}
	sh := b.shardFor(d.topic)
	b.lockShard(sh)
	if d.active != nil {
		sh.mu.Unlock()
		return nil, false
	}
	// JMS: changing topic or selector on a durable name recreates it.
	if d.topic != sub.dest.Name || d.sel.String() != sub.sel.String() {
		d.mu.Lock()
		for _, sm := range d.backlog {
			b.env.Free(sm.cost)
		}
		d.backlog = nil
		d.mu.Unlock()
		if d.topic != sub.dest.Name {
			oldTopic := d.topic
			b.unindexDurable(sh, d)
			b.refreshTopicRoute(sh, oldTopic)
			sh.mu.Unlock()
			// Unreachable from any shard index here; only the directory
			// (which we hold via durableMu) still points at d. Stale
			// snapshot routes may still reference it, which is why the
			// topic rewrite happens under d.mu — deliverDurable checks it.
			d.mu.Lock()
			d.topic = sub.dest.Name
			d.sel = sub.sel
			d.mu.Unlock()
			nsh := b.shardFor(d.topic)
			b.lockShard(nsh)
			nsh.durablesByTopic[d.topic] = append(nsh.durablesByTopic[d.topic], d)
			if j := b.loadJournal(); j != nil {
				j.DurableSubscribed(d.name, d.topic, d.sel.String())
			}
			b.refreshTopicRoute(nsh, d.topic)
			nsh.mu.Unlock()
			return d, true
		}
		d.sel = sub.sel
		if j := b.loadJournal(); j != nil {
			j.DurableSubscribed(d.name, d.topic, d.sel.String())
		}
		// The published route captured the old selector; rebuild it.
		b.refreshTopicRoute(sh, d.topic)
	}
	sh.mu.Unlock()
	return d, true
}

// unindexDurable removes a durable from its shard's by-topic index,
// preserving the order of the remaining entries. Shard lock held.
func (b *Broker) unindexDurable(sh *shard, d *durableState) {
	ds := sh.durablesByTopic[d.topic]
	for i, od := range ds {
		if od == d {
			copy(ds[i:], ds[i+1:])
			ds[len(ds)-1] = nil // don't pin the dead durable's backlog
			ds = ds[:len(ds)-1]
			break
		}
	}
	if len(ds) == 0 {
		delete(sh.durablesByTopic, d.topic)
	} else {
		sh.durablesByTopic[d.topic] = ds
	}
}

// activateDurable makes sub the durable's consumer and replays the
// backlog buffered while it was disconnected. The route that lists sub
// is published before SubOK, so a publish the client issues after
// seeing SubOK reaches the durable. Until the replay, publishers that
// reach the durable append to the backlog (replaying is set), so every
// message buffered before the live stream resumes is delivered first,
// in order. SubOK is sent without d.mu held: a binding may block in
// Send on a publish that needs it. Shard lock held.
func (b *Broker) activateDurable(sh *shard, d *durableState, sub *subscription) {
	d.mu.Lock()
	d.active = sub
	d.replaying = true
	d.mu.Unlock()
	b.refreshTopicRoute(sh, d.topic)
	b.env.Send(sub.conn.id, wire.SubOK{SubID: sub.id})

	d.mu.Lock()
	defer d.mu.Unlock()
	d.replaying = false
	backlog := d.backlog
	d.backlog = nil
	if len(backlog) > 0 {
		if j := b.loadJournal(); j != nil {
			j.DurableFlushed(d.name)
		}
	}
	for _, sm := range backlog {
		b.env.Free(sm.cost)
		b.deliverLive(sub, sm.msg, sm.cost)
	}
}

// detachDurable ends sub's activation of d; unsubscribe also destroys
// the durable's state. The detach happens under d.mu, so a publisher
// holding it either delivers to sub before the detach or buffers after
// it. The caller holds durableMu and the shard lock, and removes sub
// from the topic index.
func (b *Broker) detachDurable(sh *shard, d *durableState, sub *subscription, unsubscribe bool) {
	d.mu.Lock()
	d.active = nil
	b.detach(sub)
	if unsubscribe {
		for _, sm := range d.backlog {
			b.env.Free(sm.cost)
		}
		d.backlog = nil
		d.gone = true
	}
	d.mu.Unlock()
	if unsubscribe {
		delete(b.durables, d.name)
		b.unindexDurable(sh, d)
		if j := b.loadJournal(); j != nil {
			j.DurableUnsubscribed(d.name)
		}
	}
}

// deliverDurable routes one matched message to a durable subscription:
// live to its active consumer, or into the backlog while it is
// disconnected or an attach is replaying. Both decisions are made
// under d.mu (see durableState). The re-checks guard stale routes: a
// durable unsubscribed, or recreated on another topic, after the
// caller's route was built must not buffer the message.
func (b *Broker) deliverDurable(d *durableState, m *message.Message, cost int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.gone || d.topic != m.Dest.Name {
		return
	}
	if d.active != nil && !d.replaying {
		b.deliverLive(d.active, m, cost)
		return
	}
	if b.cfg.MaxDurableBacklog > 0 && len(d.backlog) >= b.cfg.MaxDurableBacklog {
		b.stats.droppedBacklog.Add(1)
		return
	}
	if err := b.env.Alloc(cost); err != nil {
		b.stats.droppedOOM.Add(1)
		return
	}
	d.backlog = append(d.backlog, storedMsg{msg: m, cost: cost})
	if j := b.loadJournal(); j != nil {
		j.DurableStored(d.name, m)
	}
}
