package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"regexp"
	"testing"

	"melissa"
	"melissa/internal/protocol"
)

func TestPercentiles(t *testing.T) {
	vals := []float64{9, 1, 5, 3, 7, 2, 8, 4, 10, 6} // 1..10, shuffled
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// The tail is the highest percentile with ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {150, 90}, {300, 95}, {2000, 99}, {20000, 99.9}} {
		if p, _ := tailPercentile(make([]float64, c.n)); p != c.want {
			t.Errorf("tailPercentile over %d samples uses p%v, want p%v", c.n, p, c.want)
		}
	}
	if w := worsening(100, 90, true); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("throughput 100→90 worsens by %v, want 0.1", w)
	}
	if w := worsening(100, 90, false); math.Abs(w+0.1) > 1e-12 {
		t.Errorf("latency 100→90 worsens by %v, want -0.1", w)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	parent := tr.add("parent", -1, 0, 100)
	tr.add("child", parent, 10, 30)
	tr.add("child", parent, 20, 50) // overlaps the first: covered once
	kid := tr.add("child", parent, 70, 120)
	tr.add("grandchild", kid, 70, 75) // not the parent's child
	st := tr.stats()
	if got := st["parent"].SelfNs; got != 100-40-30 {
		t.Errorf("parent self time %d, want 30 (children cover [10,50] and [70,100])", got)
	}
	if got := st["child"].TotalNs; got != 20+30+50 {
		t.Errorf("child total %d, want 100", got)
	}
	if got := st["child"].SelfNs; got != 100-5 {
		t.Errorf("child self %d, want 95", got)
	}
	var none *tracer
	if idx := none.add("x", -1, 0, 1); idx != -1 || len(none.stats()) != 0 {
		t.Errorf("nil tracer recorded something")
	}
}

// replayFrames is every wire frame a replay ensemble of the given seed
// puts on the wire, in order.
func replayFrames(t *testing.T, seed uint64) []byte {
	t.Helper()
	cfg := melissa.DefaultConfig()
	cfg.GridN, cfg.StepsPerSim = 8, 5
	pool, err := samplePool(replayProblem{}, cfg, 3, rand.New(rand.NewPCG(seed, 1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	var frames []byte
	for _, s := range pool {
		frames = protocol.AppendEncode(frames, &protocol.TimeStep{SimID: int32(s.SimID), Step: int32(s.Step), Input: s.Input, Field: s.Output})
	}
	return frames
}

func TestReplayDeterministic(t *testing.T) {
	a, b, c := replayFrames(t, 7), replayFrames(t, 7), replayFrames(t, 8)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("same seed, different frames (%d vs %d bytes)", len(a), len(b))
	}
	if bytes.Equal(a, c) {
		t.Fatalf("different seeds, identical frames")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogMatchesBenchmarkJSON: the harness and BENCHMARK.json declare
// the same workloads and metrics, under names the contract accepts.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", doc.Workloads, workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Errorf("end_to_end lacks setup_s [s, lower]")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
	}
}

// TestSmokeAllWorkloads runs every workload end to end at the smoke scale,
// traced, with the correctness checks on, and holds what it emits against
// the catalogue.
func TestSmokeAllWorkloads(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	emitted := map[string]bool{}
	for _, w := range workloads {
		ro := runOptions{seed: 2023, seconds: 0.3, tracer: newTracer(), outDir: t.TempDir(), smoke: true}
		r, err := runWorkload(w.Name, ro)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !r.correct() || r.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, r.Failed, r.Attempted, r.Notes)
		}
		for _, m := range endToEnd {
			if v, ok := r.EndToEnd[m.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, v)
			}
		}
		if len(r.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, catalogue has %d", w.Name, len(r.EndToEnd), len(endToEnd))
		}
		for name, v := range r.Layers {
			if !declared[name] {
				t.Errorf("%s emits undeclared per-layer metric %q", w.Name, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.Name, name, v)
			}
			emitted[name] = true
		}
		line := r.line(true)
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: traced result line has %d metrics, want %d", w.Name, len(line.Metrics), len(perLayer))
		}
		if err := ro.tracer.write(ro.outDir+"/trace.json", w.Name); err != nil {
			t.Errorf("%s: writing trace: %v", w.Name, err)
		}
	}
	for name := range declared {
		if !emitted[name] {
			t.Errorf("per-layer metric %q is declared but no workload emits it", name)
		}
	}
}

func TestNormaliseArgs(t *testing.T) {
	got := normaliseArgs([]string{"--workload", "x", "--trace", "1", "-trace", "-seed", "3", "--trace", "0"})
	want := []string{"--workload", "x", "-trace=1", "-trace", "-seed", "3", "-trace=0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normaliseArgs = %v, want %v", got, want)
	}
}
