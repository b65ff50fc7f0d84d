package main

// The benchmark's definition: its workloads, and the metrics it reports
// with their units. BENCHMARK.json at the repository root is generated
// from these tables (perfbench -emit-spec) and a test keeps the two equal.

import (
	"bytes"
	"encoding/json"
)

// e2eMetric is an end-to-end metric: what a user of the library sees.
// Bound is the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a per-layer metric from the traced run. It has no bound:
// it explains an end-to-end change, it does not gate one.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is the layout of BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

// runSeconds is how long one run measures: as long as the time allowed
// for all runs of both workloads leaves room for, because stolen CPU
// time on a shared host comes and goes over tens of seconds and a
// longer window averages more of it out.
const runSeconds = 50

// endToEnd lists the metrics every listed workload reports with tracing
// off. Only metrics that apply to every workload and are never zero are
// listed; accuracy, fail_rate and message rates are printed in the
// report above the result line (see extraUnits).
//
// The timing bounds are wide because the workloads are memory-bound and
// run two shards in lockstep: a shared host's cache contention and
// stolen CPU time stall every round barrier, and move wall time by
// 5–30% from one run to the next; the counts repeat to within a few
// percent across seeds.
var endToEnd = []e2eMetric{
	{"solve_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"rounds", "count", "lower", 0.1},
	{"node_rounds_per_s", "1/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.1},
	{"peak_heap_mb", "MB", "lower", 0.1},
}

// perLayer lists the traced run's metrics, grouped by the module whose
// public calls they time. A workload that never enters a layer reports
// that layer's metrics as 0.
var perLayer = []layerMetric{
	{"topology.build_s", "s", "lower"},
	{"topology.bytes_per_node", "B", "lower"},
	{"sim.new_s", "s", "lower"},
	{"sim.step_ms", "ms", "lower"},
	{"sim.step_ms_p50", "ms", "lower"},
	{"sim.step_ms_p99", "ms", "lower"},
	{"sim.activate_ms", "ms", "lower"},
	{"sim.deliver_ms", "ms", "lower"},
	{"sim.merge_ms", "ms", "lower"},
	{"sim.flush_ms", "ms", "lower"},
	{"sim.unattributed_ms", "ms", "lower"},
	{"sim.barrier_wait_ms", "ms", "lower"},
	{"sim.activate_util", "ratio", "higher"},
	{"sim.errors_ms", "ms", "lower"},
	{"sim.freelist_miss_ratio", "ratio", "lower"},
	{"fault.plan_ms", "ms", "lower"},
	{"fault.drop_ratio", "ratio", "lower"},
	{"core.exchange_ns", "ns", "lower"},
	{"gossip.value_add_ns", "ns", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// extraUnits are the units of metrics a run prints in its report but not
// in a listed workload's result line: they apply to some workloads only,
// can be zero, or belong to layers only unlisted workloads enter.
var extraUnits = map[string]string{
	"max_rel_error":             "rel",
	"qr_factorization_error":    "rel",
	"qr_orthogonality_error":    "rel",
	"fail_rate":                 "ratio",
	"msgs_per_s":                "1/s",
	"dmgs.reduction_ms_p50":     "ms",
	"dmgs.reduction_ms_p99":     "ms",
	"dmgs.rounds_per_reduction": "count",
	"linalg.check_s":            "s",
	"runtime.new_s":             "s",
	"runtime.drop_ratio":        "ratio",
	"runtime.sample_ms":         "ms",
}

// unitOf returns the unit of any metric the benchmark reports.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return extraUnits[name]
}

// spec assembles BENCHMARK.json from the tables above.
func spec() benchSpec {
	s := benchSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if w.listed {
			s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
		}
	}
	return s
}

// specJSON renders spec() exactly as BENCHMARK.json stores it.
func specJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
