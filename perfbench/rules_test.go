package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"pcfreduce/internal/topology"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort a copy
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{20, 0.5, true, 10},
		{19, 0.5, false, 0},
		{100, 0.9, true, 90},
		{99, 0.9, false, 0},
		{0, 0.5, false, 0},
	}
	for _, c := range cases {
		xs := seq(c.n)
		got, ok := percentile(xs, c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
		if c.n > 0 && xs[0] != float64(c.n) {
			t.Errorf("percentile reordered its input")
		}
		if ok && tailCount(c.n, c.q) < minTail {
			t.Errorf("percentile(%d, %v) reported with %d samples beyond it", c.n, c.q, tailCount(c.n, c.q))
		}
	}
}

func TestTallyCountsEveryOperation(t *testing.T) {
	var ta tally
	if _, err := ta.failRate(); err == nil {
		t.Fatal("fail rate of no operations should be an error")
	}
	for i := 0; i < 8; i++ {
		var err error
		if i%4 == 0 {
			err = errors.New("not converged")
		}
		ta.record(err)
	}
	rate, err := ta.failRate()
	if err != nil || ta.attempted != 8 || ta.failed != 2 || rate != 0.25 {
		t.Fatalf("attempted %d failed %d rate %v err %v; want 8, 2, 0.25, nil", ta.attempted, ta.failed, rate, err)
	}
	if len(ta.reasons) != 2 {
		t.Fatalf("kept %d failure reasons, want 2", len(ta.reasons))
	}
}

// flaky is an instance whose every third solve fails its check.
type flaky struct{ calls int }

func (f *flaky) graph() *topology.Graph { return topology.Ring(4) }
func (f *flaky) widths() []int          { return []int{1} }
func (f *flaky) rateName() string       { return "node_rounds_per_s" }
func (f *flaky) solve() (sample, error) {
	f.calls++
	s := sample{cost: callCost{wall: time.Millisecond, allocB: 1e6, heapSys: 2e6}, rounds: 10, rate: 1e4}
	if f.calls%3 == 0 {
		return s, errors.New("check failed")
	}
	return s, nil
}
func (f *flaky) traced(*tracer, *traceAcc) (sample, error) { return f.solve() }

func TestFailedOperationsAreCountedNotDropped(t *testing.T) {
	f := &flaky{}
	var ta tally
	m, err := measureSolves([]instance{f}, options{seconds: 1}, &ta, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if ta.attempted != f.calls || ta.failed != f.calls/3 {
		t.Fatalf("tally %d attempted %d failed after %d solves", ta.attempted, ta.failed, f.calls)
	}
	m["setup_s"] = 1
	w := workload{name: "flaky", listed: true}
	res, err := report(w, false, ta, m, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != f.calls || res.Failed != f.calls/3 {
		t.Fatalf("result %+v after %d solves", res, f.calls)
	}
}

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit string) {
		t.Helper()
		if !validName(name) {
			t.Errorf("invalid metric name %q", name)
		}
		if !validUnit(unit) {
			t.Errorf("metric %s has invalid unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("metric %s defined twice", name)
		}
		seen[name] = true
	}
	largest := 0.0
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for name, unit := range extraUnits {
		check(name, unit)
	}
	if unitOf("setup_s") != "s" {
		t.Error("setup_s must be in seconds")
	}
	for _, m := range endToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	for _, w := range workloads {
		if !validName(w.name) || seen[w.name] {
			t.Errorf("invalid or duplicate workload name %q", w.name)
		}
		seen[w.name] = true
		if w.why == "" || len(w.why) > 200 || bytes.ContainsAny([]byte(w.why), "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
}

func TestBenchmarkJSONIsGenerated(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh -emit-spec > BENCHMARK.json")
	}
}

func TestPhaseWallsAddUpToStep(t *testing.T) {
	p := phaseWalls{activate: 5 * time.Millisecond, deliver: 700 * time.Microsecond, merge: 3 * time.Microsecond, flush: 2 * time.Microsecond, step: 6 * time.Millisecond}
	if got := p.activate + p.deliver + p.merge + p.flush + p.unattributed(); got != p.step {
		t.Fatalf("phases + unattributed = %v, step = %v", got, p.step)
	}
}

// smallReduce is a lossy Reduce workload small enough for a unit test.
func smallReduce(t *testing.T, seed int64) *reduceInstance {
	t.Helper()
	inst, _, err := prepareReduce(func() *topology.Graph { return topology.Hypercube(8) }, 0.01, 4)(seed)
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*reduceInstance)
}

func TestTracedReduceMatchesUntracedAndAddsUp(t *testing.T) {
	ri := smallReduce(t, 5)
	if _, err := ri.solve(); err != nil {
		t.Fatal(err)
	}
	var acc traceAcc
	tr := newTracer()
	if _, err := ri.traced(tr, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.rounds != ri.first.Rounds {
		t.Fatalf("traced %d rounds, untraced %d", acc.rounds, ri.first.Rounds)
	}
	m := acc.layers()
	sum := m["sim.activate_ms"] + m["sim.deliver_ms"] + m["sim.merge_ms"] + m["sim.flush_ms"] + m["sim.unattributed_ms"]
	if step := m["sim.step_ms"]; math.Abs(sum-step) > 1e-9*step {
		t.Fatalf("phase walls + unattributed = %v ms, step = %v ms", sum, step)
	}
	if m["sim.merge_ms"] == 0 || m["fault.drop_ratio"] == 0 {
		t.Fatalf("lossy run recorded no merge time or drops: %v", m)
	}
	if len(tr.spans) != 2+3*acc.rounds {
		t.Fatalf("%d spans for %d rounds", len(tr.spans), acc.rounds)
	}
}

func TestTracedQRMatchesUntraced(t *testing.T) {
	inst, _, err := prepareQR(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.solve(); err != nil {
		t.Fatal(err)
	}
	var acc traceAcc
	if _, err := inst.traced(newTracer(), &acc); err != nil {
		t.Fatal(err)
	}
	if len(acc.reductionMs) != qrCols {
		t.Fatalf("%d reduction spans, want %d", len(acc.reductionMs), qrCols)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := smallReduce(t, 9), smallReduce(t, 9), smallReduce(t, 10)
	if !reflect.DeepEqual(a.inputs, b.inputs) || !reflect.DeepEqual(a.opt.LinkFailures, b.opt.LinkFailures) {
		t.Fatal("one seed gave two different input sets")
	}
	if reflect.DeepEqual(a.inputs, c.inputs) {
		t.Fatal("two seeds gave the same inputs")
	}
}
