package sim_test

// Fingerprint of the sequential schedule: a fixed run under every fault
// layer the executor routes through, hashed down to one SHA-256 per
// (scenario, engine). The hash covers every node's estimate bits, the
// recorded per-round error series, the merged counter snapshot (free-list
// hits and misses included), the trace-event stream and the keepalive
// count, for PCF, PCF-robust, PF, FU and push-sum. The constants were
// recorded before the sequential schedule moved onto the shard executor;
// any change to its schedule, delivery order, pool traffic or event order
// shows up here. Each scenario also runs on WithShards(2) with the same
// interceptor, which pins the serial interceptor merge of the phase-split
// schedule. There the free-list hit and miss counters are left out: which
// pool a message recycled between rounds (crash, flush, teardown) returns
// to is not part of the schedule, and TestResetKeepsShardPools pins it.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// dupReorder installs Duplicate and Reorder together so that the engine
// sees both optional extensions — Replicator (Copies) and Injector
// (Extra) — on one interceptor. fault.Compose returns a plain
// InterceptorFunc, which hides both.
type dupReorder struct {
	dup *fault.Duplicate
	reo *fault.Reorder
}

func (d dupReorder) Intercept(round int, m *gossip.Message) bool {
	return d.dup.Intercept(round, m) && d.reo.Intercept(round, m)
}
func (d dupReorder) Copies(round int, m *gossip.Message) int { return d.dup.Copies(round, m) }
func (d dupReorder) Extra(round int) []gossip.Message        { return d.reo.Extra(round) }

type fpScenario struct {
	name string
	opts []sim.EngineOption
	plan func(n int) *fault.Plan
	ic   func() sim.Interceptor // nil: no interceptor
}

func fingerprintScenarios() []fpScenario {
	return []fpScenario{
		{
			name: "detector",
			opts: []sim.EngineOption{sim.WithDetector(sim.DetectorConfig{Detect: detect.Config{Timeout: 12}})},
			plan: func(int) *fault.Plan {
				return fault.NewPlan(fault.SilentNodeCrash(20, 7)).Add(fault.LinkOutage(30, 70, 0, 1)...)
			},
		},
		{
			name: "dup-reorder",
			plan: func(int) *fault.Plan { return fault.NewPlan() },
			ic: func() sim.Interceptor {
				return dupReorder{dup: fault.NewDuplicate(0.05, 11), reo: fault.NewReorder(0.05, 12)}
			},
		},
		{
			name: "compose",
			plan: func(int) *fault.Plan { return fault.NewPlan() },
			ic: func() sim.Interceptor {
				return fault.Compose(fault.NewDuplicate(0.05, 13), fault.NewReorder(0.05, 14))
			},
		},
		{
			name: "bitflip",
			plan: func(int) *fault.Plan { return fault.NewPlan() },
			ic:   func() sim.Interceptor { return fault.NewBoundedBitFlip(0.01, 15) },
		},
		{
			name: "churn-loss",
			plan: func(n int) *fault.Plan {
				return fault.NewPlan(
					fault.SetLinkLoss(5, 0, 1, 0.2),
					fault.SetLinkLoss(5, 2, 6, 0.1),
					fault.NodeJoin(10, n, 3.5, 0, 1),
					fault.NodeLeave(20, 3),
					fault.EdgeRewire(30, 5, 4, 10),
				)
			},
		},
		{
			name: "hang",
			plan: func(int) *fault.Plan { return fault.NewPlan(fault.NodeOutage(10, 40, 5)...) },
		},
		{
			name: "abrupt",
			plan: func(int) *fault.Plan { return fault.NewPlan(fault.AbruptLinkFailure(15, 0, 1)) },
		},
	}
}

// PCF, PCF-robust, PF, FU and push-sum.
var fingerprintProtocols = []func() gossip.Protocol{
	func() gossip.Protocol { return core.NewEfficient() },
	func() gossip.Protocol { return core.NewRobust() },
	func() gossip.Protocol { return pushflow.New() },
	func() gossip.Protocol { return flowupdate.New() },
	func() gossip.Protocol { return pushsum.New() },
}

// Recorded at the commit before the sequential schedule moved onto the
// shard executor. Never update these to make the test pass: a mismatch
// means the schedule changed.
var wantFingerprint = map[string]string{
	"detector/seq":        "b2edbcc9cd898ad1bb3c81331c78ba04a8a6bec8dc799d197dfee2a27604b712",
	"detector/shards2":    "61540bb08e53673e98a6debb4920616e19a17ff8920c0989e10fdedecaf7678c",
	"dup-reorder/seq":     "a96e9625658b6e3b47e144fd8d2893c850cd6864724e87c2faede654d18b3450",
	"dup-reorder/shards2": "54850e257d32685c366e0e92c74e4b153726a617ccc58191316291cbfda5fe0d",
	"compose/seq":         "f9f539f365685891d088a1947b9aac70b5e917ef252edaff711a9e86d256300b",
	"compose/shards2":     "bf4d02fc11e6a47d2205e4fa53f84daa7f1145f6f4bb96f240a9abd0830706f8",
	"bitflip/seq":         "b97278097a7c9f957c6719e2cbc314def5e2f33c518a1c0d6127bab3faa593bb",
	"bitflip/shards2":     "f15211d8c3eaa85b3c44f7686a9c88fd4d07ff5790e578eec09b01b7031d17a0",
	"churn-loss/seq":      "10d3abb55576e3e35e3b5f6dc2a5bf3554be7dad1be9bc45ada13eeddf816733",
	"churn-loss/shards2":  "1f18d2903a809acdf1b2ce9773b04f9a811376ec6f867c4b4ff291c8c5e59591",
	"hang/seq":            "326c118ee0bf5916ba283a052f97752de14c7875735137ff4e767a7730ab5f90",
	"hang/shards2":        "37d79ceb7f876cbc1fe52ca7986e913e9759419fe833b291662bc83e58f02c75",
	"abrupt/seq":          "e36aac28a3fcd1884a74effdcad3a20e1e1ff40918044efb7436ef32ee060ef7",
	"abrupt/shards2":      "00179d8a34e080e58f7f6e3782017d016b5854a337430e97f95b5d11820221f4",
}

func TestSequentialScheduleFingerprint(t *testing.T) {
	for _, sc := range fingerprintScenarios() {
		for _, eng := range []struct {
			name string
			opts []sim.EngineOption
		}{{"seq", nil}, {"shards2", []sim.EngineOption{sim.WithShards(2)}}} {
			key := sc.name + "/" + eng.name
			h := sha256.New()
			for _, mk := range fingerprintProtocols {
				h.Write(fingerprintRun(t, sc, mk, eng.opts, eng.opts == nil))
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := wantFingerprint[key]; got != want {
				t.Errorf("%s: fingerprint %s, want %s", key, got, want)
			}
		}
	}
}

// fingerprintRun runs one protocol through one scenario and returns the
// SHA-256 of everything the run can be observed by; pools includes the
// free-list counters.
func fingerprintRun(t *testing.T, sc fpScenario, mk func() gossip.Protocol, engOpts []sim.EngineOption, pools bool) []byte {
	t.Helper()
	g := topology.Hypercube(5)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64((7*i)%13) + 0.125*float64(i%5)
	}
	protos := make([]gossip.Protocol, n)
	for i := range protos {
		protos[i] = mk()
	}
	opts := append([]sim.EngineOption{sim.WithJoinFactory(mk)}, sc.opts...)
	opts = append(opts, engOpts...)
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 42, opts...)
	defer e.Close()
	rec := metrics.New(metrics.Config{Interval: 10, EventCapacity: 4096})
	e.SetMetrics(rec)
	if sc.ic != nil {
		ic := sc.ic()
		if bf, ok := ic.(*fault.BitFlip); ok {
			bf.SetRecorder(rec)
		}
		e.SetInterceptor(ic)
	}
	res := e.Run(sim.RunConfig{MaxRounds: 150, Record: true, OnRound: sc.plan(n).OnRound})

	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(res.Rounds))
	put(uint64(e.N()))
	for _, est := range e.Estimates() {
		put(uint64(len(est)))
		for _, x := range est {
			put(math.Float64bits(x))
		}
	}
	for _, p := range res.Series {
		put(uint64(p.Iteration))
		put(math.Float64bits(p.Max))
		put(math.Float64bits(p.Median))
	}
	counters := rec.Counters()
	if !pools {
		counters[metrics.FreeListHits], counters[metrics.FreeListMisses] = 0, 0
	}
	for _, c := range counters {
		put(c)
	}
	for _, ev := range rec.Events() {
		put(uint64(ev.Kind))
		put(uint64(ev.Round))
		put(uint64(int64(ev.A)))
		put(uint64(int64(ev.B)))
		put(math.Float64bits(ev.Value))
	}
	put(uint64(e.DetectorStats().Keepalives))
	return h.Sum(nil)
}
