package main

import (
	"gridmon/internal/broker"
	"gridmon/internal/jms"
	"gridmon/internal/rgmabin"
	"gridmon/internal/rgmacore"
)

// brokerCounters is one snapshot of a JMS server's public counters.
type brokerCounters struct {
	b broker.Stats
	e jms.EgressStats
}

func readBrokerCounters(s *jms.Server) brokerCounters {
	return brokerCounters{b: s.Stats(), e: s.EgressStats()}
}

// jmsLayerCounters turns the counter deltas of a window into the per-layer
// ratios, each over its natural base (publishes, deliveries, flushes).
func jmsLayerCounters(a, b brokerCounters) map[string]float64 {
	d := func(x, y uint64) float64 { return float64(y - x) }
	pub := d(a.b.Published, b.b.Published)
	delivered := d(a.b.Delivered, b.b.Delivered)
	tasks := d(a.b.FanoutTasks, b.b.FanoutTasks)
	inline := d(a.b.FanoutInlineRuns, b.b.FanoutInlineRuns)
	return map[string]float64{
		"jms.writer_flushes_per_publish":        ratio(d(a.e.WriterFlushes, b.e.WriterFlushes), pub),
		"jms.writer_frames_per_flush":           ratio(d(a.e.WriterFrames, b.e.WriterFrames), d(a.e.WriterFlushes, b.e.WriterFlushes)),
		"jms.writevs_per_publish":               ratio(d(a.e.WriterWritevs, b.e.WriterWritevs), pub),
		"broker.shard_lock_wait_us_per_publish": ratio(d(a.b.ShardLockWaitNs, b.b.ShardLockWaitNs)/1e3, pub),
		"broker.shard_lock_contended_ratio":     ratio(d(a.b.ShardLockContended, b.b.ShardLockContended), d(a.b.ShardLockAcquisitions, b.b.ShardLockAcquisitions)),
		"broker.read_locks_per_publish":         ratio(d(a.b.ReadLockAcquisitions, b.b.ReadLockAcquisitions), pub),
		"broker.egress_frames_per_flush":        ratio(d(a.b.EgressFrames, b.b.EgressFrames), d(a.b.EgressFlushes, b.b.EgressFlushes)),
		"broker.delivered_per_publish":          ratio(delivered, pub),
		"broker.acked_per_delivery":             ratio(d(a.b.Acked, b.b.Acked), delivered),
		"broker.dropped":                        d(a.b.DroppedOOM+a.b.DroppedBacklog, b.b.DroppedOOM+b.b.DroppedBacklog),
		"selector.evals_per_publish":            ratio(d(a.b.MatchProgramEvals, b.b.MatchProgramEvals), pub),
		"predindex.candidates_per_publish":      ratio(d(a.b.MatchIndexCandidates, b.b.MatchIndexCandidates), pub),
		"predindex.skipped_per_publish":         ratio(d(a.b.MatchGroupsSkipped, b.b.MatchGroupsSkipped), pub),
		"fanout.tasks_per_publish":              ratio(tasks, pub),
		"fanout.chunks_per_task":                ratio(d(a.b.FanoutChunks, b.b.FanoutChunks), tasks),
		"fanout.inline_ratio":                   ratio(inline, inline+tasks),
	}
}

// rgmaCounters is one snapshot of an R-GMA server's public counters.
type rgmaCounters struct {
	c     rgmacore.Stats
	e     rgmabin.EgressStats
	drops uint64
}

func readRGMACounters(s *rgmabin.Server) rgmaCounters {
	return rgmaCounters{c: s.Core().StatsSnapshot(), e: s.EgressStats(), drops: s.SlowConsumerDrops()}
}

// rgmaLayerCounters is jmsLayerCounters for an R-GMA server.
func rgmaLayerCounters(a, b rgmaCounters) map[string]float64 {
	d := func(x, y uint64) float64 { return float64(y - x) }
	ins := d(a.c.Inserts, b.c.Inserts)
	return map[string]float64{
		"rgmabin.writer_frames_per_flush":  ratio(d(a.e.WriterFrames, b.e.WriterFrames), d(a.e.WriterFlushes, b.e.WriterFlushes)),
		"rgmabin.merged_pushes_per_insert": ratio(d(a.e.MergedPushes, b.e.MergedPushes), ins),
		"rgmabin.slow_consumer_drops":      d(a.drops, b.drops),
		"rgmacore.evals_per_insert":        ratio(d(a.c.MatchProgramEvals, b.c.MatchProgramEvals), ins),
		"rgmacore.candidates_per_insert":   ratio(d(a.c.MatchIndexCandidates, b.c.MatchIndexCandidates), ins),
		"rgmacore.streamed_per_insert":     ratio(d(a.c.TuplesStreamed, b.c.TuplesStreamed), ins),
		"rgmacore.tuples_dropped":          d(a.c.TuplesDropped, b.c.TuplesDropped),
		"rgmacore.read_locks_per_insert":   ratio(d(a.c.ReadLockAcquisitions, b.c.ReadLockAcquisitions), ins),
	}
}
