package obs

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"testing"
)

// refJSONL renders events as JSONL field by field, each float with plain
// strconv.AppendFloat and each line in a fresh buffer: no memo and no
// shared buffer. Both JSONL writers must write exactly these bytes.
func refJSONL(evs []Event) []byte {
	var out []byte
	for _, e := range evs {
		line := []byte(`{"t":`)
		line = strconv.AppendFloat(line, e.TMS, 'g', -1, 64)
		line = append(line, `,"kind":"`...)
		line = append(line, string(e.Kind)...)
		line = append(line, '"')
		if e.Req >= 0 {
			line = append(line, `,"req":`...)
			line = strconv.AppendInt(line, int64(e.Req), 10)
		}
		if e.Replica >= 0 {
			line = append(line, `,"replica":`...)
			line = strconv.AppendInt(line, int64(e.Replica), 10)
		}
		if e.Batch != 0 {
			line = append(line, `,"batch":`...)
			line = strconv.AppendInt(line, int64(e.Batch), 10)
		}
		if e.Val != 0 {
			line = append(line, `,"val":`...)
			line = strconv.AppendInt(line, int64(e.Val), 10)
		}
		if e.DurMS != 0 {
			line = append(line, `,"dur_ms":`...)
			line = strconv.AppendFloat(line, e.DurMS, 'g', -1, 64)
		}
		if e.LatMS != 0 {
			line = append(line, `,"lat_ms":`...)
			line = strconv.AppendFloat(line, e.LatMS, 'g', -1, 64)
		}
		line = append(line, "}\n"...)
		out = append(out, line...)
	}
	return out
}

// checkJSONL streams evs through NewTracerTo and writes them through
// WriteJSONL, and fails unless both write refJSONL's bytes.
func checkJSONL(tb testing.TB, evs []Event) {
	tb.Helper()
	want := refJSONL(evs)
	var streamed, written bytes.Buffer
	st, buffered := NewTracerTo(&streamed, nil), NewTracer()
	for _, e := range evs {
		st.Emit(e)
		buffered.Emit(e)
	}
	if err := st.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := buffered.WriteJSONL(&written); err != nil {
		tb.Fatal(err)
	}
	for _, w := range []struct {
		name string
		got  []byte
	}{{"NewTracerTo", streamed.Bytes()}, {"WriteJSONL", written.Bytes()}} {
		if !bytes.Equal(w.got, want) {
			got, ref := bytes.Split(w.got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := range ref {
				if i >= len(got) || !bytes.Equal(got[i], ref[i]) {
					tb.Fatalf("%s line %d of %d differs from the reference:\n got %q\nwant %q", w.name, i, len(evs), got[min(i, len(got)-1)], ref[i])
				}
			}
			tb.Fatalf("%s writes %d bytes, the reference %d", w.name, len(w.got), len(want))
		}
	}
}

// collide returns the nearest float bits above x's that share x's dur_ms
// memo slot.
func collide(x uint64) uint64 {
	y := x + 1
	for durSlot(y) != durSlot(x) {
		y++
	}
	return y
}

// FuzzTracerEncoding checks both JSONL writers against refJSONL on
// arbitrary float bits. a, b and c are raw float64 bits; each op byte
// makes one event and picks its t and lat_ms from a, b, c and a with its
// sign flipped (so +0 and -0 alternate when a is 0), and its dur_ms from
// a, b and values that collide with them in one memo slot. Repeated op
// bytes repeat t. Inputs longer than 64 ops are skipped.
func FuzzTracerEncoding(f *testing.F) {
	bits := math.Float64bits
	ops := []byte{0, 3, 0, 3, 3, 0, 0, 1, 1, 2, 2, 0x04, 0x08, 0x0c, 0x08, 0x0c, 0x0d, 0x0e, 0x0f,
		0x10, 0x21, 0x32, 0x43, 0x87, 0xcb, 0xff, 0xfe, 0xfd, 0xfc, 0x5a, 0xa5}
	f.Add(uint64(0), bits(math.NaN()), bits(math.Inf(1)), ops)
	f.Add(bits(math.Inf(-1)), uint64(1), uint64(1)<<52-1, ops) // the smallest and largest subnormals
	f.Add(bits(12.5), bits(25), bits(0.1), ops)
	f.Add(bits(-2.2250738585072014e-308), bits(1e21), bits(-0.00012345678901234567), ops)
	f.Fuzz(func(t *testing.T, a, b, c uint64, ops []byte) {
		// The memos' state spans a few events, and the fuzzer's
		// minimization of a new input takes time quadratic in its
		// length: long inputs would spend the run minimizing.
		if len(ops) > 64 {
			t.Skip()
		}
		fl := math.Float64frombits
		vals := [4]float64{fl(a), fl(b), fl(c), fl(a ^ 1<<63)}
		durs := [4]float64{fl(a), fl(b), fl(collide(a)), fl(collide(b))}
		evs := make([]Event, 0, len(ops))
		for i, op := range ops {
			e := At(vals[op&3], KindServeStart)
			e.DurMS = durs[op>>2&3]
			e.LatMS = vals[op>>4&3]
			if op&0x40 != 0 {
				e.Req = i
			}
			if op&0x80 != 0 {
				e.Replica, e.Batch = i%3, 1+i%4
			}
			evs = append(evs, e)
		}
		checkJSONL(t, evs)
	})
}

// TestJSONLMemosHoldLastRendering pins that the memos fill: after each
// event the t memo holds that event's t, and the dur_ms memo's slot for
// its dur_ms holds that value, each keyed by its bits and rendered as
// appendFloat renders it. Without this the memos could stay empty and
// every output would still match the reference.
func TestJSONLMemosHoldLastRendering(t *testing.T) {
	evs := sampleEvents()
	for _, v := range []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(-1), -2.2250738585072014e-308, 5e-324, 0.1} {
		e := At(v, KindRestart)
		e.DurMS = v
		evs = append(evs, e, e)
	}
	tr := NewTracerTo(io.Discard, nil)
	holds := func(m *floatText, v float64) bool {
		return m.n > 0 && m.bits == math.Float64bits(v) && string(m.text[:m.n]) == ftoa(v)
	}
	for i, e := range evs {
		tr.Emit(e)
		if !holds(&tr.jsonl.t, e.TMS) {
			t.Fatalf("event %d: the t memo holds %q (bits %#x), want %s", i, tr.jsonl.t.text[:tr.jsonl.t.n], tr.jsonl.t.bits, ftoa(e.TMS))
		}
		if e.DurMS == 0 {
			continue
		}
		if m := &tr.jsonl.dur[durSlot(math.Float64bits(e.DurMS))]; !holds(m, e.DurMS) {
			t.Fatalf("event %d: the dur_ms memo slot holds %q (bits %#x), want %s", i, m.text[:m.n], m.bits, ftoa(e.DurMS))
		}
	}
}
