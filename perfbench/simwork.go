package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"flowercdn/internal/harness"
	"flowercdn/internal/metrics"
	_ "flowercdn/internal/protocols" // registers every protocol driver
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/simnet"
	"flowercdn/internal/simrt"
	"flowercdn/internal/trace"
)

// simWorkload is a simulated cell: QuickConfig's Table 1 proportions
// (sites, objects, seed stagger) at a chosen protocol, population and
// horizon. Peers query on exponential think times in simulated time
// (an open loop), whatever the program's speed. A pass of the workload
// runs the cell on cells different seeds derived from the run's seed,
// so one run's outcomes rest on several independent cells.
type simWorkload struct {
	name       string
	protocol   harness.Protocol
	population int
	horizon    int64
	cells      int
	// aliveBand bounds the peers alive at the horizon as a share of
	// the population: churn has converged on 8-hour cells.
	aliveBand [2]float64
}

var simWorkloads = []simWorkload{
	{name: "flower-p2000", protocol: harness.ProtocolFlower, population: 2000, horizon: 8 * runtime.Hour, cells: 6, aliveBand: [2]float64{0.85, 1.15}},
	{name: "koorde-p400", protocol: harness.ProtocolKoordeGlobal, population: 400, horizon: 8 * runtime.Hour, cells: 4, aliveBand: [2]float64{0.8, 1.2}},
}

// config is the harness configuration of cell i of the run seeded seed.
func (w simWorkload) config(seed uint64, i int, backend string) harness.Config {
	cfg := harness.QuickConfig()
	cfg.Protocol = w.protocol
	cfg.Population = w.population
	cfg.Duration = w.horizon
	cfg.Seed = seed*uint64(w.cells) + uint64(i)
	cfg.Backend = backend
	return cfg
}

// The benchmark's own backends. Both build the stock engine and
// simulated network from their public constructors.
const (
	// backendTimed is the stock sim backend with the event loop timed
	// from outside: end-to-end metrics come from it.
	backendTimed = "perfbench-sim"
	// backendTraced hands simnet a wrapped clock and wraps the
	// transport and every handler: per-layer metrics come from it.
	backendTraced = "perfbench-traced"
)

// probe carries measurements out of the backend of the run in
// progress. Runs are sequential, so one is live at a time.
var probe *loopProbe

type loopProbe struct {
	// setupOnly makes the backend return before running any event, so
	// a run measures set-up alone.
	setupOnly bool

	loopStart, loopNs int64
	cpuS              float64

	traced *tracedSim
}

func init() {
	runtime.RegisterBackend(backendTimed, func(cfg runtime.BackendConfig) (runtime.Runtime, error) {
		if cfg.LossRate > 0 {
			return nil, errors.New("perfbench: the benchmark cells model no loss")
		}
		return &timedSim{Runtime: simrt.New(cfg.Topo), p: probe}, nil
	})
	runtime.RegisterBackend(backendTraced, func(cfg runtime.BackendConfig) (runtime.Runtime, error) {
		if cfg.LossRate > 0 {
			return nil, errors.New("perfbench: the benchmark cells model no loss")
		}
		eng := sim.NewEngine()
		s := &spans{}
		clk := &tracedClock{inner: eng.Clock(), s: s, pending: eng.Pending}
		net := simnet.New(clk, cfg.Topo)
		t := &tracedSim{eng: eng, clk: clk, tr: &tracedTransport{Transport: net, s: s, net: layerSimnet}, s: s}
		probe.traced = t
		return t, nil
	})
}

// timedSim is the stock sim backend; only Run is intercepted, to time
// the loop.
type timedSim struct {
	*simrt.Runtime
	p *loopProbe
}

func (r *timedSim) Run(until int64) uint64 {
	p := r.p
	p.loopStart = nanotime()
	if p.setupOnly {
		return 0
	}
	cpu0 := cpuSeconds()
	processed := r.Runtime.Run(until)
	p.loopNs = nanotime() - p.loopStart
	p.cpuS = cpuSeconds() - cpu0
	return processed
}

// tracedSim is the traced backend.
type tracedSim struct {
	eng *sim.Engine
	clk *tracedClock
	tr  *tracedTransport
	s   *spans

	loopNs int64
	// final is the span aggregate at the end of the loop.
	final spans
}

func (t *tracedSim) Clock() runtime.Clock   { return t.clk }
func (t *tracedSim) Net() runtime.Transport { return t.tr }

func (t *tracedSim) Run(until int64) uint64 {
	t.s.resetTimes()
	start := nanotime()
	n := t.eng.Run(until)
	t.loopNs = nanotime() - start
	t.final = *t.s
	return n
}

// simRound is one complete run of a cell.
type simRound struct {
	res                 *harness.Result
	setupS, runS, cpuS  float64
	allocBytes, mallocs uint64
}

// runRound runs the cell once and measures it from outside.
func runRound(cfg harness.Config) (*simRound, *loopProbe, error) {
	p := &loopProbe{}
	probe = p
	b0, m0 := allocCounts()
	t0 := nanotime()
	res, err := harness.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	r := &simRound{res: res, setupS: float64(p.loopStart-t0) / 1e9, runS: float64(p.loopNs) / 1e9, cpuS: p.cpuS}
	if res.MemStats != nil {
		r.allocBytes = res.MemStats.TotalAllocBytes - b0
		r.mallocs = res.MemStats.Mallocs - m0
	}
	return r, p, nil
}

// setupRepeats is how many extra set-ups an untraced run times.
const setupRepeats = 41

// measureSetup times the cell's set-up alone: topology, catalogue,
// deployment and everything else up to the start of the event loop.
func measureSetup(cfg harness.Config) (float64, error) {
	p := &loopProbe{setupOnly: true}
	probe = p
	t0 := nanotime()
	if _, err := harness.Run(cfg); err != nil {
		return 0, err
	}
	return float64(p.loopStart-t0) / 1e9, nil
}

func runSim(w simWorkload, o options) (*result, error) {
	if o.traced {
		return runSimTraced(w, o)
	}
	r := newResult()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		s, err := measureSetup(w.config(o.seed, i%w.cells, backendTimed))
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	// Whole passes while another fits in the run's time: every pass
	// attempts the same queries, so the failed share is the same in
	// every run.
	start := time.Now()
	var passes [][]*simRound
	budget := time.Duration(o.seconds) * time.Second
	for len(passes) == 0 || time.Since(start)*time.Duration(len(passes)+1)/time.Duration(len(passes)) <= budget {
		var pass []*simRound
		for i := 0; i < w.cells; i++ {
			cfg := w.config(o.seed, i, backendTimed)
			cfg.MeasureMem = true
			rd, _, err := runRound(cfg)
			if err != nil {
				return nil, err
			}
			pass = append(pass, rd)
			setups = append(setups, rd.setupS)
			r.attempted += rd.res.Queries
			r.failed += rd.res.Unresolved
		}
		passes = append(passes, pass)
	}
	first := passes[0]
	for i, rd := range first {
		checkSimResult(r, w, w.config(o.seed, i, backendTimed), rd.res)
		for p, pass := range passes[1:] {
			if fp := pass[i].res.Fingerprint; fp != rd.res.Fingerprint {
				r.problem("cell %d: pass %d fingerprint %016x differs from pass 0's %016x", i, p+1, fp, rd.res.Fingerprint)
			}
		}
	}

	// Costs are summed over a pass's cells and reported as the median
	// pass; outcomes pool the cells' counts or take the median cell.
	// The event loop's wall time per modelled RPC is a cell's own, and
	// its quantiles are taken over every cell run.
	var runS, cpuS, allocB, allocsPerOp, rpcRate, rpcCost, liveHeap []float64
	for _, pass := range passes {
		var run, cpu, alloc, mallocs, queries, reqs float64
		for _, rd := range pass {
			run += rd.runS
			cpu += rd.cpuS
			alloc += float64(rd.allocBytes)
			mallocs += float64(rd.mallocs)
			queries += float64(rd.res.Queries)
			reqs += float64(rd.res.NetStats.RequestsIssued)
			rpcCost = append(rpcCost, rd.runS*1e6/float64(rd.res.NetStats.RequestsIssued))
			liveHeap = append(liveHeap, float64(rd.res.MemStats.HeapAllocBytes))
		}
		runS = append(runS, run)
		cpuS = append(cpuS, cpu)
		allocB = append(allocB, alloc)
		allocsPerOp = append(allocsPerOp, mallocs/queries)
		rpcRate = append(rpcRate, reqs/run)
	}
	var tailQ, tailHits, msgs, queries float64
	var lookupP50, lookupP99, transferP50 []float64
	for _, rd := range first {
		res := rd.res
		for _, pt := range res.Series[max(0, len(res.Series)-harness.QuickConfig().TailWindows):] {
			tailQ += float64(pt.Queries)
			tailHits += math.Round(pt.HitRatio * float64(pt.Queries))
		}
		msgs += float64(res.NetStats.MessagesSent)
		queries += float64(res.Queries)
		lookupP50 = append(lookupP50, float64(res.LookupQuantiles.P50))
		lookupP99 = append(lookupP99, float64(res.LookupQuantiles.P99))
		transferP50 = append(transferP50, float64(res.TransferQuantiles.P50))
	}
	m := r.metrics
	m["setup_s"] = median(setups)
	m["run_s"] = median(runS)
	m["cpu_s"] = median(cpuS)
	m["peak_rss_bytes"] = peakRSSBytes()
	m["live_heap_bytes"] = median(liveHeap)
	m["alloc_bytes"] = median(allocB)
	m["allocs_per_op"] = median(allocsPerOp)
	m["lookup_p50_ms"] = median(lookupP50)
	m["lookup_p99_ms"] = median(lookupP99)
	m["transfer_p50_ms"] = median(transferP50)
	m["tail_hit_ratio"] = tailHits / tailQ
	m["msgs_per_query"] = msgs / queries
	m["rpc_per_s"] = median(rpcRate)
	m["rpc_p50_us"] = median(rpcCost)
	m["rpc_p99_us"] = nearestRankFloat(rpcCost, 0.99)

	for i, rd := range first {
		res := rd.res
		served := res.Queries - res.Unresolved
		r.note("%s seed %d cell %d (cell seed %d): %d queries, %d served (quantile samples; p99 has %d beyond it), %d events, %d modelled RPCs (%.2f µs of loop each), %d alive at the horizon, mean hops %.3f, lookup p50/p99 %d/%d ms, transfer p50 %d ms, fingerprint %016x",
			w.name, o.seed, i, w.config(o.seed, i, backendTimed).Seed, res.Queries, served, served-uint64(math.Ceil(0.99*float64(served))),
			res.EventsProcessed, res.NetStats.RequestsIssued, rd.runS*1e6/float64(res.NetStats.RequestsIssued), res.AlivePeers, res.MeanHops,
			res.LookupQuantiles.P50, res.LookupQuantiles.P99, res.TransferQuantiles.P50, res.Fingerprint)
	}
	r.note("%d pass(es) of %d cells, %d set-up samples", len(passes), w.cells, len(setups))
	return r, nil
}

// checkSimResult checks a round's outputs against required properties
// and independent recomputations.
func checkSimResult(r *result, w simWorkload, cfg harness.Config, res *harness.Result) {
	if res.Queries == 0 {
		r.problem("no queries were issued")
		return
	}
	if got := res.Hits + res.Misses + res.Unresolved; got != res.Queries {
		r.problem("hits %d + misses %d + unresolved %d = %d, want queries %d", res.Hits, res.Misses, res.Unresolved, got, res.Queries)
	}
	if hits := res.GossipHits + res.DirectoryHits + res.DirSummaryHits; hits != res.Hits {
		r.problem("hit breakdown sums to %d, want hits %d", hits, res.Hits)
	}
	var q, h uint64
	for _, pt := range res.Series {
		q += pt.Queries
		h += uint64(math.Round(pt.HitRatio * float64(pt.Queries)))
	}
	if q != res.Queries || h != res.Hits {
		r.problem("per-window series sums to %d queries / %d hits, want %d / %d", q, h, res.Queries, res.Hits)
	}
	// Events stamped exactly at the horizon still run, so a query at
	// that instant opens one more window.
	if want := int(w.horizon / cfg.SeriesWindow); len(res.Series) != want && len(res.Series) != want+1 {
		r.problem("series has %d windows, want %d or %d", len(res.Series), want, want+1)
	}
	if hi := math.Log2(float64(w.population)); res.MeanHops < 1 || res.MeanHops > hi {
		r.problem("mean hops per routed query %.3f outside [1, log2 P = %.3f]", res.MeanHops, hi)
	}
	lo, hi := w.aliveBand[0]*float64(w.population), w.aliveBand[1]*float64(w.population)
	if a := float64(res.AlivePeers); a < lo || a > hi {
		r.problem("%d peers alive at the horizon, outside [%.0f, %.0f]", res.AlivePeers, lo, hi)
	}
	if res.TailHitRatio <= 0 || res.TailHitRatio > 1 {
		r.problem("tail hit ratio %.4f outside (0, 1]", res.TailHitRatio)
	}
	if res.EventsProcessed == 0 {
		r.problem("the event loop ran no events")
	}
}

// runSimTraced makes the traced run: an untraced reference round under
// a CPU profile (profile-bucketed layers, GC counters, the reference
// fingerprint and wall time), then a round on the traced backend.
func runSimTraced(w simWorkload, o options) (*result, error) {
	r := newResult()
	profPath := filepath.Join(o.workDir, fmt.Sprintf("perfbench-%s-%d.pprof", w.name, os.Getpid()))
	var ref *simRound
	gc, err := profiled(profPath, func() error {
		var err error
		ref, _, err = runRound(w.config(o.seed, 0, backendTimed))
		return err
	})
	if err != nil {
		return nil, err
	}
	cpu, err := profileLayers(profPath)
	os.Remove(profPath)
	if err != nil {
		return nil, err
	}
	for name, v := range cpu {
		r.metrics[name+".cpu_s"] = v
	}
	gc.set(r)

	cfg := w.config(o.seed, 0, backendTraced)
	cfg.Trace = &harness.TraceConfig{}
	rd, p, err := runRound(cfg)
	if err != nil {
		return nil, err
	}
	res, t := rd.res, p.traced
	checkSimResult(r, w, cfg, res)
	if res.Fingerprint != ref.res.Fingerprint {
		r.problem("traced fingerprint %016x differs from the untraced run's %016x", res.Fingerprint, ref.res.Fingerprint)
	}
	checkTransportCounts(r, t.tr, &t.final, res.NetStats)
	checkTraceRecords(r, cfg, res)

	s := &t.final
	checkSpans(r, s, t.loopNs)
	simSelf := t.loopNs - s.topNs

	m := r.metrics
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	m["sim.events"] = float64(res.EventsProcessed)
	m["sim.scheduled"] = float64(t.clk.scheduled.Load())
	m["sim.cancelled"] = float64(t.clk.cancelled.Load())
	m["sim.fired_ratio"] = float64(t.clk.fired) / float64(t.clk.scheduled.Load())
	m["sim.pending_max"] = float64(t.clk.pendingMax)
	m["sim.self_s"] = secs(simSelf)
	m["sim.ns_per_event"] = float64(simSelf) / float64(res.EventsProcessed)
	m["simnet.sends"] = float64(t.tr.sends)
	m["simnet.requests"] = float64(t.tr.requests)
	m["simnet.delivered"] = float64(res.NetStats.MessagesDelivered)
	m["simnet.dropped"] = float64(res.NetStats.MessagesDropped)
	m["simnet.timeouts"] = float64(res.NetStats.RequestsTimedOut)
	m["simnet.rpc_ok_ratio"] = float64(t.tr.rpcOK) / float64(t.tr.requests)
	m["simnet.bytes"] = float64(res.NetStats.BytesSent)
	m["simnet.self_s"] = secs(s.selfNs[kindNet][layerSimnet] + s.selfNs[kindTimer][layerSimnet])
	r.setLayerSpans(s)
	r.zeroMetrics("socknet.frames_out", "socknet.batches_out", "socknet.frames_per_batch", "socknet.bytes_out",
		"socknet.send_s", "socknet.handle_s", "wallclock.callbacks", "wallclock.late_p50_us", "wallclock.late_p99_us")

	r.attempted, r.failed = res.Queries, res.Unresolved
	r.note("%s seed %d: traced loop %.3f s, untraced loop %.3f s (tracing overhead %.1f%%), %d events, %d trace records",
		w.name, o.seed, secs(t.loopNs), ref.runS, 100*(secs(t.loopNs)/ref.runS-1), res.EventsProcessed, len(res.Traces))
	return r, nil
}

// checkSpans checks the span aggregates of a traced loop that ran for
// loopNs: every span begun inside the loop ended inside it, so none
// is left open and the outermost spans fit in the loop's wall time.
// The per-layer self times then sum to the loop's wall time exactly,
// sim.self_s (the loop's own time) being a share of it that is not
// negative.
func checkSpans(r *result, s *spans, loopNs int64) {
	var ended uint64
	for k := range s.count {
		for l := range s.count[k] {
			ended += s.count[k][l]
		}
	}
	if len(s.stack) != 0 || s.begun != ended {
		r.problem("%d spans begun, %d ended, %d still open at the end of the loop", s.begun, ended, len(s.stack))
	}
	if s.topNs < 0 || s.topNs > loopNs {
		r.problem("outermost spans took %.4f s of a %.4f s loop", float64(s.topNs)/1e9, float64(loopNs)/1e9)
	}
}

// checkTransportCounts reconciles the wrapper's own call counts with
// the transport's statistics: every handled request sends a response
// leg, and every delivery reaches a wrapped handler.
func checkTransportCounts(r *result, tr *tracedTransport, s *spans, st runtime.TransportStats) {
	var handled uint64
	for l := range s.count[kindHandle] {
		handled += s.count[kindHandle][l]
	}
	if tr.requests != st.RequestsIssued {
		r.problem("wrapper saw %d Request calls, transport issued %d", tr.requests, st.RequestsIssued)
	}
	if sent := tr.sends + tr.requests + s.handledReqs; sent != st.MessagesSent {
		r.problem("wrapper saw %d sends + %d requests + %d responses = %d, transport sent %d",
			tr.sends, tr.requests, s.handledReqs, sent, st.MessagesSent)
	}
	if handled != st.MessagesDelivered {
		r.problem("wrapped handlers ran %d times, transport delivered %d", handled, st.MessagesDelivered)
	}
}

// checkTraceRecords recomputes the lookup and transfer quantiles from
// the per-query trace records and checks every peer-served transfer
// distance against the topology's latency clamp.
func checkTraceRecords(r *result, cfg harness.Config, res *harness.Result) {
	var lookups, transfers []int64
	lo, hi := cfg.Topology.MinLatency, cfg.Topology.MaxLatency
	outside := 0
	for _, rec := range res.Traces {
		if rec.Outcome == metrics.Unresolved || len(rec.Hops) < 2 {
			continue
		}
		issue, serve := rec.Hops[0], rec.Hops[len(rec.Hops)-1]
		if issue.Kind != trace.HopIssue || serve.Kind != trace.HopServe {
			r.problem("query %d: path runs %v..%v, want issue..serve", rec.Query, issue.Kind, serve.Kind)
			continue
		}
		dist := res.HopLatency(rec.Client, serve.Node)
		lookup := serve.At - issue.At
		if rec.Outcome == metrics.Miss {
			lookup += dist
		} else if lookup > dist {
			lookup -= dist
		}
		if rec.Outcome != metrics.Miss && (dist < lo || dist > hi) {
			outside++
		}
		lookups = append(lookups, lookup)
		transfers = append(transfers, dist)
	}
	if served := res.Queries - res.Unresolved; uint64(len(lookups)) != served {
		r.problem("%d trace records of served queries, want %d", len(lookups), served)
	}
	if outside > 0 {
		r.problem("%d peer-served transfer distances outside [%d, %d] ms", outside, lo, hi)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"lookup p50", nearestRank(lookups, 0.50), res.LookupQuantiles.P50},
		{"lookup p99", nearestRank(lookups, 0.99), res.LookupQuantiles.P99},
		{"transfer p50", nearestRank(transfers, 0.50), res.TransferQuantiles.P50},
		{"transfer p99", nearestRank(transfers, 0.99), res.TransferQuantiles.P99},
	} {
		if c.got != c.want {
			r.problem("cell seed %d: %s from trace records is %d ms, the run reports %d ms", cfg.Seed, c.name, c.got, c.want)
		}
	}
}
