package main

// The traced run: each layer is timed from outside, by spans around the
// calls into that layer's public functions. The traced replays build
// exactly what the public calls build, so their outputs must match the
// untraced ones bit for bit.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"pcfreduce"
	"pcfreduce/internal/core"
	"pcfreduce/internal/dmgs"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/linalg"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/runtime"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/stats"
)

// span is one timed call. Spans of one operation share op; parent is the
// index of the span that caused this one (-1 for an operation's root).
type span struct {
	op, parent int
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{op: t.op, parent: parent, name: name, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	return s.end - s.start
}

// add records a span whose start and end were taken by the caller.
func (t *tracer) add(name string, parent int, start, end time.Time) time.Duration {
	t.spans = append(t.spans, span{op: t.op, parent: parent, name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return end.Sub(start)
}

// write stores the spans as Chrome trace-event JSON (one track per
// operation), which Perfetto and chrome://tracing open, stamped with the
// machine fingerprint.
func (t *tracer) write(path string, fp fingerprint) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	fmt.Fprint(w, `{"traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ev := event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.op,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"span": i, "parent": s.parent},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintf(w, "],\"otherData\":%s}\n", fp)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceAcc accumulates the layer timings of a run's traced solves. Each
// workload fills the fields of the layers it enters.
type traceAcc struct {
	// sim and fault, from the Reduce workloads.
	newS, stepMs   []float64
	errors, plan   time.Duration
	walls          phaseWalls
	activateTask   time.Duration // summed per-shard activate task time
	barrier        time.Duration // summed barrier waits of all fan-outs
	shards, rounds int
	counters       metrics.Snapshot

	// dmgs and linalg, from the QR workload.
	reductionMs     []float64
	reductionRounds int
	checkS          []float64

	// runtime.
	runtimeNewS  []float64
	drops, sends int64
	sample       time.Duration
	sampleCount  uint64
}

// tail is the upper percentile reported for per-round Step spans and
// per-reduction spans.
const tail = 0.99

// ready reports whether every percentile the traced solves feed has
// enough samples beyond it.
func (a *traceAcc) ready() bool {
	if len(a.stepMs) > 0 {
		if _, ok := percentile(a.stepMs, tail); !ok {
			return false
		}
	}
	if len(a.reductionMs) > 0 {
		if _, ok := percentile(a.reductionMs, tail); !ok {
			return false
		}
	}
	return true
}

// layers returns the per-layer metrics of the layers the traced solves
// entered.
func (a *traceAcc) layers() map[string]float64 {
	m := map[string]float64{}
	if a.rounds > 0 {
		p50, _ := percentile(a.stepMs, 0.5)
		p99, _ := percentile(a.stepMs, tail)
		m["sim.new_s"] = median(a.newS)
		m["sim.step_ms"] = perRoundMs(a.walls.step, a.rounds)
		m["sim.step_ms_p50"] = p50
		m["sim.step_ms_p99"] = p99
		m["sim.activate_ms"] = perRoundMs(a.walls.activate, a.rounds)
		m["sim.deliver_ms"] = perRoundMs(a.walls.deliver, a.rounds)
		m["sim.merge_ms"] = perRoundMs(a.walls.merge, a.rounds)
		m["sim.flush_ms"] = perRoundMs(a.walls.flush, a.rounds)
		m["sim.unattributed_ms"] = perRoundMs(a.walls.unattributed(), a.rounds)
		m["sim.barrier_wait_ms"] = perRoundMs(a.barrier, a.rounds)
		m["sim.errors_ms"] = perRoundMs(a.errors, a.rounds)
		m["fault.plan_ms"] = perRoundMs(a.plan, a.rounds)
		if a.walls.activate > 0 {
			m["sim.activate_util"] = float64(a.activateTask) / (float64(a.shards) * float64(a.walls.activate))
		}
		c := a.counters
		if alloc := c[metrics.FreeListHits] + c[metrics.FreeListMisses]; alloc > 0 {
			m["sim.freelist_miss_ratio"] = float64(c[metrics.FreeListMisses]) / float64(alloc)
		}
		if sent := c[metrics.MsgsSent]; sent > 0 {
			m["fault.drop_ratio"] = float64(c[metrics.MsgsDropped]) / float64(sent)
		}
	}
	if len(a.reductionMs) > 0 {
		p50, _ := percentile(a.reductionMs, 0.5)
		p99, _ := percentile(a.reductionMs, tail)
		m["dmgs.reduction_ms_p50"] = p50
		m["dmgs.reduction_ms_p99"] = p99
		m["dmgs.rounds_per_reduction"] = float64(a.reductionRounds) / float64(len(a.reductionMs))
		m["linalg.check_s"] = median(a.checkS)
	}
	if len(a.runtimeNewS) > 0 {
		m["runtime.new_s"] = median(a.runtimeNewS)
		if a.sends > 0 {
			m["runtime.drop_ratio"] = float64(a.drops) / float64(a.sends)
		}
		if a.sampleCount > 0 {
			m["runtime.sample_ms"] = ms(a.sample) / float64(a.sampleCount)
		}
	}
	return m
}

// phaseSum returns the summed duration of a named phase.
func phaseSum(stats []metrics.PhaseStat, name string) time.Duration {
	for _, s := range stats {
		if s.Phase == name {
			return time.Duration(s.SumNs)
		}
	}
	return 0
}

// traced replays pcfreduce.Reduce on the layers it calls: the engine is
// built as Reduce builds it (sim.NewScalar with WithShards, fault.NewLoss,
// a fault.Plan), and the round loop is sim.Engine.Run's — OnRound, Step,
// Errors, stop at eps — with a span around each call and a timing
// recorder attached for the phase split.
func (ri *reduceInstance) traced(tr *tracer, acc *traceAcc) (sample, error) {
	opt := ri.opt
	n := ri.g.N()
	var res pcfreduce.ReduceResult
	cost := measure(func() {
		root := tr.begin("pcfreduce.Reduce", -1)
		id := tr.begin("sim.NewScalar", root)
		protos := make([]gossip.Protocol, n)
		for i := range protos {
			protos[i] = pcfreduce.PCF.NewNode()
		}
		e := sim.NewScalar(ri.g, protos, ri.inputs, opt.Aggregate, opt.Seed, sim.WithShards(opt.Shards))
		if opt.LossRate > 0 {
			e.SetInterceptor(fault.NewLoss(opt.LossRate, opt.Seed+1))
		}
		rec := metrics.New(metrics.Config{Timing: true})
		e.SetMetrics(rec)
		acc.newS = append(acc.newS, tr.end(id).Seconds())
		var events []fault.Event
		for _, lf := range opt.LinkFailures {
			events = append(events, fault.LinkFailure(lf.Round, lf.A, lf.B))
		}
		plan := fault.NewPlan(events...)
		for r := 0; r < opt.MaxRounds; r++ {
			id = tr.begin("fault.Plan.OnRound", root)
			plan.OnRound(e, e.Round())
			acc.plan += tr.end(id)
			id = tr.begin("sim.Engine.Step", root)
			e.Step()
			step := tr.end(id)
			acc.stepMs = append(acc.stepMs, ms(step))
			acc.walls.step += step
			id = tr.begin("sim.Engine.Errors", root)
			maxErr := stats.Max(e.Errors())
			acc.errors += tr.end(id)
			res.Rounds = r + 1
			if maxErr <= opt.Eps {
				res.Converged = true
				break
			}
		}
		res.Exact = e.Targets()[0]
		res.MaxError = e.MaxError()
		for _, est := range e.Estimates() {
			res.Estimates = append(res.Estimates, est[0])
		}
		e.Close()
		tr.end(root)

		ps := rec.PhaseStats()
		acc.walls.activate += phaseSum(ps, "wall-activate")
		acc.walls.deliver += phaseSum(ps, "wall-deliver")
		acc.walls.merge += phaseSum(ps, "merge")
		acc.walls.flush += phaseSum(ps, "flush")
		acc.activateTask += phaseSum(ps, "activate")
		acc.barrier += phaseSum(ps, "barrier-activate") + phaseSum(ps, "barrier-deliver") + phaseSum(ps, "barrier-errors")
		c := rec.Counters()
		for i := range acc.counters {
			acc.counters[i] += c[i]
		}
		acc.shards = e.Shards()
		acc.rounds += res.Rounds
	})
	s := sample{cost: cost, rounds: float64(res.Rounds), accuracy: map[string]float64{"max_rel_error": res.MaxError}}
	if err := ri.check(res); err != nil {
		return s, fmt.Errorf("traced: %w", err)
	}
	if ri.first == nil {
		return s, fmt.Errorf("traced solve ran before any untraced solve")
	}
	return s, sameReduce("traced solve", *ri.first, res)
}

// qrStallRounds is the stall cutoff pcfreduce.QR gives dmgs.Factorize.
// It is not an option of the facade, so the traced replay repeats it;
// the equivalence check fails if the two ever drift apart.
const qrStallRounds = 60

// traced replays pcfreduce.QR on dmgs.Factorize with the facade's
// configuration, spanning each reduction through the OnReduction hook,
// then times the linalg error checks the facade runs.
func (qi *qrInstance) traced(tr *tracer, acc *traceAcc) (sample, error) {
	var res dmgs.Result
	var err error
	var fe, oe float64
	cost := measure(func() {
		root := tr.begin("pcfreduce.QR", -1)
		fid := tr.begin("dmgs.Factorize", root)
		last := time.Now()
		res, err = dmgs.Factorize(qi.v, dmgs.Config{
			Topology:    qi.g,
			NewProtocol: pcfreduce.PCF.NewNode,
			Eps:         qi.opt.Eps,
			MaxRounds:   qi.opt.MaxRounds,
			StallRounds: qrStallRounds,
			Seed:        qi.opt.Seed,
			Batched:     qi.opt.Batched,
			OnReduction: func(_ int, r sim.Result) {
				now := time.Now()
				acc.reductionMs = append(acc.reductionMs, ms(tr.add("dmgs.reduction", fid, last, now)))
				acc.reductionRounds += r.Rounds
				last = now
			},
		})
		tr.end(fid)
		if err != nil {
			tr.end(root)
			return
		}
		cid := tr.begin("linalg.check", root)
		fe = linalg.FactorizationError(qi.v, res.Q, res.R)
		oe = linalg.OrthogonalityError(res.Q)
		acc.checkS = append(acc.checkS, tr.end(cid).Seconds())
		tr.end(root)
	})
	s := sample{
		cost:     cost,
		rounds:   float64(res.TotalRounds),
		accuracy: map[string]float64{"qr_factorization_error": fe, "qr_orthogonality_error": oe},
	}
	if err != nil {
		return s, fmt.Errorf("traced dmgs.Factorize: %w", err)
	}
	if qi.first == nil {
		return s, fmt.Errorf("traced solve ran before any untraced solve")
	}
	if err := sameQR("traced solve", *qi.first, res.TotalRounds, res.R); err != nil {
		return s, err
	}
	if math.Float64bits(fe) != math.Float64bits(qi.first.FactorizationError) || math.Float64bits(oe) != math.Float64bits(qi.first.OrthogonalityError) {
		return s, fmt.Errorf("traced errors %g, %g differ from the first solve's %g, %g",
			fe, oe, qi.first.FactorizationError, qi.first.OrthogonalityError)
	}
	return s, nil
}

// traced runs runtime.New and Network.Run with spans around each and a
// timing recorder attached for the monitor probe's cost. Goroutine
// scheduling makes runs irreproducible, so there is no output to match.
func (rt *runtimeInstance) traced(tr *tracer, acc *traceAcc) (sample, error) {
	cfg := rt.config()
	rec := metrics.New(metrics.Config{Timing: true})
	cfg.Metrics = rec
	var net *runtime.Network
	var res runtime.RunResult
	var err error
	cost := measure(func() {
		root := tr.begin("runtime", -1)
		id := tr.begin("runtime.New", root)
		net, err = runtime.New(cfg)
		acc.runtimeNewS = append(acc.runtimeNewS, tr.end(id).Seconds())
		if err == nil {
			id = tr.begin("runtime.Network.Run", root)
			res, err = net.Run(context.Background(), runtimeRun)
			tr.end(id)
		}
		tr.end(root)
	})
	if err != nil {
		return sample{cost: cost}, fmt.Errorf("traced runtime: %w", err)
	}
	acc.drops += net.Drops()
	acc.sends += int64(res.TotalSends)
	for _, p := range rec.PhaseStats() {
		if p.Phase == "sample" {
			acc.sample += time.Duration(p.SumNs)
			acc.sampleCount += p.Count
		}
	}
	return rt.result(cost, net, res)
}

// microBatches and microBatchNs size the value-algebra and exchange
// timings: each is the median of microBatches batches of about
// microBatchNs each.
const (
	microBatches = 9
	microBatchNs = 2e6
)

// timePerOp returns the median per-call time of op over batches of
// calls, with the batch size calibrated to about microBatchNs.
func timePerOp(op func()) float64 {
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		if el := time.Since(start); el >= microBatchNs/4 || iters >= 1<<24 {
			iters = int(float64(iters) * microBatchNs / math.Max(float64(el.Nanoseconds()), 1))
			break
		}
		iters *= 4
	}
	iters = max(iters, 1)
	per := make([]float64, microBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(per)
}

// seededVector returns a width-k value with entries in [0,1).
func seededVector(k int, seed int64) gossip.Value {
	xs := make([]float64, k)
	for i := range xs {
		xs[i] = float64((int64(i)*7919+seed)%1000) / 1000
	}
	return gossip.Vector(xs, 1)
}

// exchangeNs times one PCF exchange — FillMessage on the sender, Receive
// on the peer — between two warm nodes at value width k.
func exchangeNs(k int) float64 {
	a, c := core.NewEfficient(), core.NewEfficient()
	a.Reset(0, []int32{1}, seededVector(k, 1))
	c.Reset(1, []int32{0}, seededVector(k, 2))
	msg := gossip.Message{Flow1: gossip.NewValue(k), Flow2: gossip.NewValue(k)}
	turn := false
	return timePerOp(func() {
		if turn {
			c.FillMessage(0, &msg)
			a.Receive(msg)
		} else {
			a.FillMessage(1, &msg)
			c.Receive(msg)
		}
		turn = !turn
	})
}

// valueAddNs times one gossip.Value.AddInPlace at width k.
func valueAddNs(k int) float64 {
	v, u := seededVector(k, 3), seededVector(k, 4)
	return timePerOp(func() { v.AddInPlace(u) })
}

// microLayers times the exchange and the value algebra at every width
// the workload's messages carry, averaged over the widths.
func microLayers(widths []int) map[string]float64 {
	var ex, add float64
	for _, k := range widths {
		ex += exchangeNs(k)
		add += valueAddNs(k)
	}
	return map[string]float64{
		"core.exchange_ns":    ex / float64(len(widths)),
		"gossip.value_add_ns": add / float64(len(widths)),
	}
}
