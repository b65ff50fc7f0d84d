// Command perfbench is the repository's benchmark: it runs one workload
// through the library's public calls for a fixed time, checks every
// output, and prints every metric by name with its unit. The last line
// of its output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"solve_s": {"value": 2.98, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run times each layer from outside and reports the
// per-layer metrics, and writes its spans under .bench_build/spans.
//
// Usage (from the repository root, which run.sh builds it from):
//
//	bash perfbench/run.sh --workload hypercube-16k --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh -emit-spec > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// fingerprint stamps the run's output and its spans.
	fingerprint fingerprint
}

// Run-length limits. A run sets up setupReps input sets, times each
// set-up, and keeps the first inputSets for its solves; a traced run
// keeps going past its window until its percentiles have enough
// samples, but never past traceCap.
const (
	inputSets = 16
	setupReps = 64
	traceCap  = 150 * time.Second
)

// spansDir is where a traced run writes its spans, relative to the
// directory it runs in.
const spansDir = ".bench_build/spans"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed (≥ 0): generates every input")
	fs.IntVar(&opt.seconds, "seconds", runSeconds, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	emit := fs.Bool("emit-spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *emit {
		b, err := specJSON()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	w, ok := findWorkload(opt.workload)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", opt.workload)
		return 2
	case opt.seed < 0:
		fmt.Fprintln(stderr, "perfbench: -seed must be ≥ 0")
		return 2
	case opt.seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1")
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	opt.trace = trace == 1
	res, err := runWorkload(w, opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload prepares w, measures it, prints the report and returns
// the result line.
func runWorkload(w workload, opt options, out io.Writer) (result, error) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", w.name, opt.seed, opt.seconds, opt.trace)
	opt.fingerprint = takeFingerprint()
	fmt.Fprintf(out, "fingerprint %s\n", opt.fingerprint)

	insts, setupS, topoS, err := setup(w, opt.seed)
	if err != nil {
		return result{}, err
	}
	var t tally
	// One untimed solve before the window, so the heap has grown to its
	// working size and the caches are warm when timing starts. It is
	// checked and counted like every other operation.
	s, err := insts[0].solve()
	t.record(err)
	fmt.Fprintf(out, "warm-up solve %.4f s (untimed)\n", s.cost.wall.Seconds())
	var m map[string]float64
	if opt.trace {
		m, err = measureTraced(insts, opt, &t, out)
	} else {
		m, err = measureSolves(insts, opt, &t, out)
	}
	if err != nil {
		return result{}, err
	}
	if opt.trace {
		g := insts[0].graph()
		m["topology.build_s"] = median(topoS)
		m["topology.bytes_per_node"] = float64(g.FootprintBytes()) / float64(g.N())
	} else {
		m["setup_s"] = median(setupS)
	}
	rate, err := t.failRate()
	if err != nil {
		return result{}, err
	}
	m["fail_rate"] = rate
	fmt.Fprintf(out, "operations attempted=%d failed=%d input_sets=%d\n", t.attempted, t.failed, len(insts))
	for _, r := range t.reasons {
		fmt.Fprintf(out, "failure %s\n", r)
	}
	return report(w, opt.trace, t, m, out)
}

// setup prepares setupReps input sets of the workload, each from its
// own seed drawn from the run's seed, and returns the first inputSets of
// them with the set-up and topology-construction time of every one.
func setup(w workload, seed int64) (insts []instance, setupS, topoS []float64, err error) {
	seeds := rand.New(rand.NewSource(seed))
	for rep := 0; rep < setupReps; rep++ {
		goruntime.GC()
		start := time.Now()
		inst, topo, err := w.prepare(seeds.Int63n(1 << 62))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("prepare %s: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		topoS = append(topoS, topo.Seconds())
		if len(insts) < inputSets {
			insts = append(insts, inst)
		}
	}
	return insts, setupS, topoS, nil
}

// measureSolves runs the public call back to back for the run's window,
// one input set after the other (a closed loop with one caller), and
// returns the end-to-end metrics.
func measureSolves(insts []instance, opt options, t *tally, out io.Writer) (map[string]float64, error) {
	window := time.Duration(opt.seconds) * time.Second
	var samples []sample
	start := time.Now()
	for i := 0; ; i++ {
		goruntime.GC()
		s, err := insts[i%len(insts)].solve()
		t.record(err)
		samples = append(samples, s)
		// Stop before a solve that would end past the window.
		if time.Since(start)+s.cost.wall > window {
			break
		}
	}
	fmt.Fprintf(out, "solves %d in %.3f s, walls (s):", len(samples), time.Since(start).Seconds())
	for _, s := range samples {
		fmt.Fprintf(out, " %.4f", s.cost.wall.Seconds())
	}
	fmt.Fprintln(out)
	return solveMetrics(insts[0].rateName(), samples), nil
}

// solveMetrics reduces a run's samples to its end-to-end metrics.
func solveMetrics(rateName string, samples []sample) map[string]float64 {
	var wall, alloc, heap, rounds, rate []float64
	worst := map[string]float64{}
	for _, s := range samples {
		wall = append(wall, s.cost.wall.Seconds())
		alloc = append(alloc, float64(s.cost.allocB)/1e6)
		heap = append(heap, float64(s.cost.heapSys)/1e6)
		rounds = append(rounds, s.rounds)
		rate = append(rate, s.rate)
		for k, v := range s.accuracy {
			if w, ok := worst[k]; !ok || v > w || math.IsNaN(v) {
				worst[k] = v
			}
		}
	}
	m := map[string]float64{
		"solve_s":      median(wall),
		"alloc_mb":     median(alloc),
		"peak_heap_mb": median(heap),
		rateName:       median(rate),
	}
	if r := median(rounds); r > 0 {
		m["rounds"] = r
	}
	for k, v := range worst {
		m[k] = v
	}
	return m
}

// measureTraced alternates an untraced public call with a traced one
// until the window has passed and every percentile has its samples. It
// returns the per-layer metrics and writes the spans.
func measureTraced(insts []instance, opt options, t *tally, out io.Writer) (map[string]float64, error) {
	window := time.Duration(opt.seconds) * time.Second
	tr := newTracer()
	var acc traceAcc
	var plain, traced []float64
	start := time.Now()
	for i := 0; ; i++ {
		inst := insts[i%len(insts)]
		goruntime.GC()
		s, err := inst.solve()
		t.record(err)
		plain = append(plain, s.cost.wall.Seconds())
		goruntime.GC()
		s, err = inst.traced(tr, &acc)
		t.record(err)
		traced = append(traced, s.cost.wall.Seconds())
		tr.op++
		el := time.Since(start)
		if el > traceCap {
			return nil, fmt.Errorf("traced run still short of percentile samples after %v", el.Round(time.Second))
		}
		if el+2*s.cost.wall > window && acc.ready() {
			break
		}
	}
	fmt.Fprintf(out, "traced %d and untraced %d solves in %.3f s\n", len(traced), len(plain), time.Since(start).Seconds())
	m := acc.layers()
	for k, v := range microLayers(insts[0].widths()) {
		m[k] = v
	}
	m["trace.overhead_s"] = median(traced) - median(plain)
	path := filepath.Join(spansDir, opt.workload+".json")
	if err := tr.write(path, opt.fingerprint); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans %d written to %s\n", len(tr.spans), path)
	return m, nil
}

// report prints every metric with its unit and assembles the result
// line: the BENCHMARK.json metrics for a listed workload (0 for a layer
// the workload does not enter), every metric for an unlisted one.
func report(w workload, trace bool, t tally, m map[string]float64, out io.Writer) (result, error) {
	var names []string
	switch {
	case !w.listed:
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
	case trace:
		for _, d := range perLayer {
			names = append(names, d.Name)
		}
	default:
		for _, d := range endToEnd {
			names = append(names, d.Name)
		}
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, name := range names {
		v, ok := m[name]
		if !ok {
			if !trace {
				return result{}, fmt.Errorf("workload %s did not produce end-to-end metric %s", w.name, name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", name, v)
		}
		unit := unitOf(name)
		if unit == "" {
			return result{}, fmt.Errorf("metric %s has no unit", name)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	// Every metric the run produced, reported or not, with its unit.
	var all []string
	for k := range m {
		all = append(all, k)
	}
	sort.Strings(all)
	for _, name := range all {
		note := ""
		if _, ok := res.Metrics[name]; !ok {
			note = " (report only)"
		}
		fmt.Fprintf(out, "metric %-26s %-14.6g %s%s\n", name, m[name], unitOf(name), note)
	}
	for _, name := range names {
		if _, ok := m[name]; !ok {
			fmt.Fprintf(out, "metric %-26s %-14d %s (layer not entered)\n", name, 0, unitOf(name))
		}
	}
	return res, nil
}
