package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteJSONLDeterministicAndOmitsEmpty(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{TMS: 0, Kind: KindArrive, Req: 0, Replica: -1})
	e := At(12.5, KindEnqueue)
	e.Req = 3
	e.Replica = 1
	e.Val = 4
	tr.Emit(e)
	o := At(99.25, KindOutageEnd)
	o.DurMS = 10.75
	tr.Emit(o)

	var a, b bytes.Buffer
	if err := tr.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteJSONL is not byte-stable across calls")
	}

	lines := strings.Split(strings.TrimSuffix(a.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	want := []string{
		`{"t":0,"kind":"arrive","req":0}`,
		`{"t":12.5,"kind":"enqueue","req":3,"replica":1,"val":4}`,
		`{"t":99.25,"kind":"outage_end","dur_ms":10.75}`,
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d:\n got %s\nwant %s", i, lines[i], w)
		}
	}
	// Every line must also be valid JSON.
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Errorf("line %d is not valid JSON: %v", i, err)
		}
	}
}

func TestWriteChromeValidJSONAndTracks(t *testing.T) {
	tr := NewTracer()
	s := At(10, KindServeStart)
	s.Replica = 2
	s.Batch = 4
	s.DurMS = 25
	tr.Emit(s)
	c := At(50, KindCrash)
	c.Replica = 0
	tr.Emit(c)
	r := At(80, KindRestart)
	r.Replica = 0
	r.DurMS = 30
	tr.Emit(r)
	tr.Emit(At(50, KindOutageStart))
	o := At(80, KindOutageEnd)
	o.DurMS = 30
	tr.Emit(o)
	i := At(5, KindArrive)
	i.Req = 7
	tr.Emit(i)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// Metadata: dispatcher + replicas 0..2 (max replica seen is 2).
	metas := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" {
			metas++
		}
	}
	if metas != 4 {
		t.Errorf("got %d thread metadata events, want 4 (dispatcher + 3 replicas)", metas)
	}
	// serve_start renders as a complete event with microsecond ts/dur on
	// tid replica+1; outage renders B/E on the dispatcher tid 0.
	foundX, foundOutB := false, false
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			foundX = true
			if ev["ts"].(float64) != 10000 || ev["dur"].(float64) != 25000 {
				t.Errorf("X event ts/dur = %v/%v, want 10000/25000", ev["ts"], ev["dur"])
			}
			if ev["tid"].(float64) != 3 {
				t.Errorf("X event tid = %v, want 3", ev["tid"])
			}
		}
		if ev["ph"] == "B" && ev["name"] == "outage" {
			foundOutB = true
			if ev["tid"].(float64) != 0 {
				t.Errorf("outage B tid = %v, want 0 (dispatcher)", ev["tid"])
			}
		}
	}
	if !foundX {
		t.Error("no X (complete) event for serve_start")
	}
	if !foundOutB {
		t.Error("no B event for outage_start")
	}
}

// TestWriteChromeGenSlotTracks: a generative trace renders queue/slot
// track names, residencies and committed work as X slices at their
// commit instant minus duration, and preemptions as instants.
func TestWriteChromeGenSlotTracks(t *testing.T) {
	tr := NewTracer()
	tr.Gen = true
	a := At(0, KindSeqArrive)
	a.Req = 3
	a.Val = 64
	tr.Emit(a)
	p := At(40, KindPrefillChunk)
	p.Req = 3
	p.Replica = 1
	p.Val = 32
	p.DurMS = 30
	tr.Emit(p)
	pe := At(70, KindPreempt)
	pe.Req = 3
	pe.Replica = 1
	pe.Val = 5
	pe.DurMS = 60
	tr.Emit(pe)
	c := At(200, KindSeqComplete)
	c.Req = 3
	c.Replica = 1
	c.DurMS = 120
	c.LatMS = 200
	tr.Emit(c)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("gen Chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	names := map[string]bool{}
	var seqSlices, preemptInstants int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" {
			names[ev["args"].(map[string]any)["name"].(string)] = true
		}
		if ev["ph"] == "X" && ev["name"] == "seq(3)" {
			seqSlices++
			ts, dur := ev["ts"].(float64), ev["dur"].(float64)
			if !(ts == 10000 && dur == 60000) && !(ts == 80000 && dur == 120000) {
				t.Errorf("seq slice ts/dur = %v/%v, want the preempted or final residency", ts, dur)
			}
		}
		if ev["ph"] == "i" && ev["name"] == "preempt" {
			preemptInstants++
		}
		if ev["ph"] == "X" && ev["name"] == "prefill(32)" {
			if ev["ts"].(float64) != 10000 || ev["dur"].(float64) != 30000 {
				t.Errorf("prefill slice ts/dur = %v/%v, want 10000/30000", ev["ts"], ev["dur"])
			}
		}
	}
	if !names["queue"] || !names["slot 0"] || !names["slot 1"] {
		t.Errorf("gen track names = %v, want queue + slot 0..1", names)
	}
	if seqSlices != 2 {
		t.Errorf("%d seq(3) slices, want 2 (preempted residency + final residency)", seqSlices)
	}
	if preemptInstants != 1 {
		t.Errorf("%d preempt instants, want 1", preemptInstants)
	}
}

func TestTracerEmptyWritesAreValid(t *testing.T) {
	tr := NewTracer()
	var j, c bytes.Buffer
	if err := tr.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Errorf("empty trace JSONL = %q, want empty", j.String())
	}
	if err := tr.WriteChrome(&c); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(c.Bytes(), &doc); err != nil {
		t.Fatalf("empty Chrome trace is not valid JSON: %v", err)
	}
}
