package main

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"gridmon/internal/gridgen"
	"gridmon/internal/message"
	"gridmon/internal/rgmacore"
	"gridmon/internal/sqlmini"
	"gridmon/internal/wire"
)

// workloadFrames builds the frames one send of the workload puts on the
// wire, in their real proportions: a JMS publish is one Publish, a
// Deliver and an Ack per delivery, and a PubAck; an R-GMA batch is one
// RGMAInsert, its RGMAOK and one push per delivered tuple.
func workloadFrames(w workload, in *inputs, s int64) []wire.Frame {
	if w.rgma {
		bs := int64(w.batchSize)
		sqls := make([]string, bs)
		frames := []wire.Frame{}
		for k := range sqls {
			seq := s*bs + int64(k)
			sqls[k] = in.insertSQL(seq)
			g := in.gen(seq)
			// The cells as the server renders them: the 2-decimal literal
			// parsed back to a float, then printed shortest-form.
			power, _ := strconv.ParseFloat(strconv.FormatFloat(in.power(seq), 'f', 2, 64), 64)
			row := []string{strconv.Itoa(g), strconv.FormatInt(seq, 10), strconv.FormatFloat(power, 'g', -1, 64), "'" + site(g) + "'"}
			st := &rgmacore.Streamed{Tuple: rgmacore.PopTuple{Row: row, InsertedAt: now()}}
			enc := st.Encoded(func(t rgmacore.PopTuple) []byte {
				return wire.AppendRGMATuple(nil, wire.RGMATuple{Row: t.Row, InsertedAt: t.InsertedAt})
			})
			push := wire.RGMATuples{Consumer: 1, Enc: [][]byte{enc}}
			frames = append(frames, push)
			if g < w.siteQueries {
				frames = append(frames, wire.RGMATuples{Consumer: int64(2 + g), Enc: [][]byte{enc}})
			}
		}
		return append(frames, wire.RGMAInsert{Seq: s + 1, Producer: 1, SQLs: sqls}, wire.RGMAOK{Seq: s + 1, ID: bs})
	}
	m := gridgen.MonitoringMessage(in.gen(s), s)
	m.Dest = message.Topic(topicName)
	m.Timestamp = now()
	m.ID = fmt.Sprintf("ID:bench/%d", s)
	frames := []wire.Frame{wire.Publish{Seq: s + 1, Msg: m}}
	frozen := m.Clone().Freeze()
	per := w.catchAll
	if w.perGen {
		per++
	}
	for i := 0; i < per; i++ {
		frames = append(frames, wire.Deliver{SubID: int64(i + 1), Tag: s*int64(per) + int64(i), Msg: frozen})
	}
	for i := 0; i < per; i++ {
		frames = append(frames, wire.Ack{SubID: int64(i + 1), Tags: []int64{s*int64(per) + int64(i)}})
	}
	return append(frames, wire.PubAck{Seq: s + 1})
}

// codecCost times wire.AppendFrame and wire.Unmarshal over the
// workload's frames for about budget each, in ns per frame, and reports
// the encoded bytes per delivery frame (Deliver, or a pushed
// RGMATuples): what the server writes to the subscriber per delivery.
func codecCost(w workload, in *inputs, budget time.Duration) (encNs, decNs, deliveryBytes float64, err error) {
	var frames []wire.Frame
	for s := int64(0); len(frames) < 2000; s++ {
		frames = append(frames, workloadFrames(w, in, s)...)
	}
	var buf []byte
	var bodies [][]byte
	var dBytes, dFrames int
	for _, f := range frames {
		start := len(buf)
		if buf, err = wire.AppendFrame(buf, f); err != nil {
			return 0, 0, 0, err
		}
		bodies = append(bodies, slices.Clone(buf[start+4:]))
		switch f.(type) {
		case wire.Deliver, wire.RGMATuples:
			dBytes += len(buf) - start
			dFrames++
		}
	}
	var n int
	t := now()
	for deadline := t + int64(budget); now() < deadline; {
		buf = buf[:0]
		for _, f := range frames {
			buf, _ = wire.AppendFrame(buf, f)
		}
		n += len(frames)
	}
	encNs = ratio(float64(now()-t), float64(n))
	n = 0
	t = now()
	for deadline := t + int64(budget); now() < deadline; {
		for _, b := range bodies {
			if _, err := wire.Unmarshal(b); err != nil {
				return 0, 0, 0, fmt.Errorf("decode %d-byte frame: %w", len(b), err)
			}
		}
		n += len(bodies)
	}
	decNs = ratio(float64(now()-t), float64(n))
	return encNs, decNs, ratio(float64(dBytes), float64(dFrames)), nil
}

// parseCost times sqlmini.Parse on the workload's INSERT statements, in
// µs per statement.
func parseCost(in *inputs, budget time.Duration) (float64, error) {
	sqls := make([]string, 1000)
	for i := range sqls {
		sqls[i] = in.insertSQL(int64(i))
	}
	var n int
	t := now()
	for deadline := t + int64(budget); now() < deadline; {
		for _, q := range sqls {
			if _, err := sqlmini.Parse(q); err != nil {
				return 0, fmt.Errorf("parse %q: %w", q, err)
			}
		}
		n += len(sqls)
	}
	return ratio(us(now()-t), float64(n)), nil
}
