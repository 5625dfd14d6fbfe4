package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"

	"flowercdn/internal/bloom"
	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/flower"
	"flowercdn/internal/gossip"
	"flowercdn/internal/ids"
	"flowercdn/internal/metrics"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
	"flowercdn/internal/socknet"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/wallclock"
	"flowercdn/internal/workload"
)

// socket-rpc: two socknet process groups meshed over loopback inside
// this process, under the binary codec, on a topology with zero
// modelled latency, so the program's own cost is what is timed. A
// closed loop keeps rpcOutstanding Requests in flight from a client
// node in group 0 to a server node in group 1. Each request is one of
// four registered wire types; the server answers with a digest of the
// request as it decoded it, which the client checks against the digest
// of the request it sent.

const (
	rpcOutstanding = 32
	rpcTimeout     = 4 * runtime.Second
	// rpcPerKind is how many distinct requests of each kind the run
	// cycles through.
	rpcPerKind = 64
	rpcCodec   = "binary"
	// meshReady bounds mesh formation.
	meshReady = 10 * time.Second
)

// rpcKinds name the request mix, from the smallest control message to
// a gossip shuffle whose entries carry Bloom summaries.
var rpcKinds = []string{"chord.GatewayRetract", "workload.FetchReq", "trace.Record", "gossip.shuffleReq"}

// rpcCase is one request and the answer it must get.
type rpcCase struct {
	req  any
	want uint64
}

// digest is FNV-1a over the message's canonical binary encoding.
func digest(c runtime.Codec, msg any) (uint64, error) {
	b, err := c.AppendMessage(nil, msg)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

// rpcAnswer is the response a server sends for a request digest.
func rpcAnswer(d uint64) any {
	return workload.FetchResp{Key: content.KeyFromUint64(d), Served: true}
}

// rpcAnswerOK reports whether resp is the answer to a request whose
// digest the caller computed as want.
func rpcAnswerOK(resp any, want uint64) bool {
	fr, ok := resp.(workload.FetchResp)
	return ok && fr.Served && fr.Key.Uint64() == want
}

// makeRequests builds the request mix from the seed, kinds interleaved.
func makeRequests(seed uint64, c runtime.Codec) ([]rpcCase, error) {
	rng := rnd.New(seed).Split("socket-rpc")
	var out []rpcCase
	for i := 0; i < rpcPerKind; i++ {
		shuffle, err := shuffleRequest(rng)
		if err != nil {
			return nil, err
		}
		for _, req := range []any{
			chord.GatewayRetract{Node: runtime.NodeID(rng.Intn(1 << 20))},
			workload.FetchReq{Key: content.Key{Site: content.SiteID(rng.Intn(20)), Object: content.ObjectID(rng.Intn(200))}},
			traceRecord(rng),
			shuffle,
		} {
			d, err := digest(c, req)
			if err != nil {
				return nil, err
			}
			out = append(out, rpcCase{req: req, want: d})
		}
	}
	return out, nil
}

// traceRecord is a query trace as a socket follower ships it home.
func traceRecord(rng *rnd.RNG) *trace.Record {
	node := func() runtime.NodeID { return runtime.NodeID(rng.Intn(1 << 20)) }
	loc := func() runtime.Locality { return runtime.Locality(rng.Intn(6)) }
	at := int64(rng.Intn(1 << 24))
	rec := &trace.Record{Query: rng.Uint64() >> 1, Client: node(), Loc: loc(), Key: rng.Uint64() >> 1, Outcome: metrics.HitDirectory, Attempts: 1}
	rec.Hops = append(rec.Hops, trace.Hop{Kind: trace.HopIssue, Node: rec.Client, Loc: rec.Loc, At: at})
	for k := 1 + rng.Intn(5); k > 0; k-- {
		at += int64(10 + rng.Intn(490))
		rec.Hops = append(rec.Hops, trace.Hop{Kind: trace.HopRoute, Node: node(), Loc: loc(), At: at})
	}
	for _, kind := range []trace.HopKind{trace.HopHome, trace.HopProbe, trace.HopServe} {
		at += int64(10 + rng.Intn(490))
		rec.Hops = append(rec.Hops, trace.Hop{Kind: kind, Node: node(), Loc: loc(), At: at})
	}
	return rec
}

// captureNet stands in for a transport under a gossip protocol: it
// records the request a shuffle round issues.
type captureNet struct {
	runtime.Transport // unused; only Clock and Request are called
	clock             runtime.Clock
	req               any
}

func (c *captureNet) Clock() runtime.Clock { return c.clock }

func (c *captureNet) Request(_, _ runtime.NodeID, req any, _ int64, _ func(any, error)) { c.req = req }

// summaryApp describes a petal member by its Bloom content summary.
type summaryApp struct{ self flower.ContactMeta }

func (a summaryApp) SelfDescriptor() any                     { return a.self }
func (summaryApp) OnExchange(runtime.NodeID, []gossip.Entry) {}
func (summaryApp) OnContactDead(runtime.NodeID)              {}

// contactMeta is a petal contact's gossip metadata: a Bloom summary of
// a content store holding objects keys, and its directory info.
func contactMeta(rng *rnd.RNG, objects int) flower.ContactMeta {
	f := bloom.NewForCapacity(max(objects, 16), content.SummaryFPRate)
	for i := 0; i < objects; i++ {
		f.Add(content.Key{Site: content.SiteID(rng.Intn(20)), Object: content.ObjectID(rng.Intn(200))}.Uint64())
	}
	return flower.ContactMeta{Summary: f, Dir: flower.DirInfo{Pos: ids.ID(rng.Uint64()), Node: runtime.NodeID(rng.Intn(1 << 20)), Age: rng.Intn(4)}}
}

// shuffleRequest drives one round of a real gossip protocol instance
// and returns the shuffle request it issues.
func shuffleRequest(rng *rnd.RNG) (any, error) {
	capture := &captureNet{clock: sim.NewEngine().Clock()}
	me := runtime.NodeID(rng.Intn(1 << 20))
	g, err := gossip.New(gossip.DefaultConfig(), capture, rng.Split("gossip"), me, summaryApp{self: contactMeta(rng, 10+rng.Intn(60))})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		g.AddContact(me+1+runtime.NodeID(i), contactMeta(rng, 10+rng.Intn(60)))
	}
	g.Tick()
	if capture.req == nil {
		return nil, errors.New("gossip round issued no shuffle")
	}
	return capture.req, nil
}

// rpcWindows is how many equal windows the loop's time is cut into
// (100 ms each in a 20-second run): latency quantiles are taken per
// window and reported over the windows, so stalls in some windows (a
// collector pause, another process on the machine) do not decide the
// whole run.
const rpcWindows = 200

// windowed folds one series of latency samples (ns) into per-window
// counts and quantiles as they arrive, so a run keeps one window's
// samples, not all of them. One run loop feeds it, in time order.
type windowed struct {
	start, stopAt int64
	cur           int
	buf           []int64
	n             [rpcWindows]int
	p50, p99      [rpcWindows]float64
}

// add records a sample of value v that completed at time at; samples
// outside the measured time are dropped.
func (w *windowed) add(at, v int64) {
	if at < w.start || at >= w.stopAt {
		return
	}
	if i := int((at - w.start) * rpcWindows / (w.stopAt - w.start)); i != w.cur {
		w.flush()
		w.cur = i
	}
	w.buf = append(w.buf, v)
}

// flush closes the current window.
func (w *windowed) flush() {
	if len(w.buf) == 0 {
		return
	}
	w.n[w.cur] = len(w.buf)
	w.p50[w.cur] = float64(nearestRank(w.buf, 0.50))
	w.p99[w.cur] = float64(nearestRank(w.buf, 0.99))
	w.buf = w.buf[:0]
}

// perWindow lists a per-window figure over the windows holding
// samples.
func (w *windowed) perWindow(per *[rpcWindows]float64) []float64 {
	var qs []float64
	for i, n := range w.n {
		if n > 0 {
			qs = append(qs, per[i])
		}
	}
	return qs
}

// median50 is the median over the windows of each window's p50.
func (w *windowed) median50() float64 { return median(w.perWindow(&w.p50)) }

// quiet99 is the p99 of the run's quietest stretches: the second
// percentile over the windows of each window's p99 (the fourth lowest
// of 200). Other tenants of the machine only add latency, and their
// load comes in bursts that reach most windows of some runs and few of
// others: the p99 of the median window, or even of the tenth
// percentile window, then follows the neighbours, while the quietest
// windows follow the program's own tail.
func (w *windowed) quiet99() float64 { return nearestRankFloat(w.perWindow(&w.p99), 0.02) }

// rate is the samples per second over the measured time. (A window's
// count is a whole number of lockstep rounds, so the median window's
// rate would read the same in every run.)
func (w *windowed) rate() float64 {
	var n int
	for _, c := range w.n {
		n += c
	}
	return float64(n) / (float64(w.stopAt-w.start) / 1e9)
}

// legMark pairs an RPC's expected digest with a timestamp.
type legMark struct {
	want uint64
	at   int64
}

// fifo is a mutex-guarded queue shared by the two run loops. Requests
// travel one TCP connection and one run loop per side, so they reach
// the server, and their answers the client, in issue order; a digest
// that does not match the queue's head breaks that order and is
// reported.
type fifo struct {
	mu sync.Mutex
	q  []legMark
}

func (f *fifo) push(m legMark) {
	f.mu.Lock()
	f.q = append(f.q, m)
	f.mu.Unlock()
}

func (f *fifo) pop() (legMark, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.q) == 0 {
		return legMark{}, false
	}
	m := f.q[0]
	f.q = f.q[1:]
	return m, true
}

// rpcLoop is one closed-loop measurement over a formed mesh.
type rpcLoop struct {
	m     *mesh
	cases []rpcCase

	toServer, toClient fifo

	// Client side: touched on group 0's run loop only.
	next, outstanding  int
	stopAt, tailFrom   int64
	issued, ok, wrong  uint64
	timeouts, misorder uint64
	tailIssued, tailOK uint64
	rtt, respLg        *windowed
	done               chan struct{}

	// Server side: touched on group 1's run loop only.
	serverCodec   runtime.Codec
	serverMisfits uint64
	reqLeg        *windowed
}

// rpcServer answers every request with its digest.
type rpcServer struct{ l *rpcLoop }

func (s rpcServer) HandleMessage(runtime.NodeID, any) {}

func (s rpcServer) HandleRequest(_ runtime.NodeID, req any) (any, error) {
	l := s.l
	d, err := digest(l.serverCodec, req)
	if err != nil {
		return nil, err
	}
	now := nanotime()
	if m, ok := l.toServer.pop(); !ok || m.want != d {
		l.serverMisfits++
	} else {
		l.reqLeg.add(now, now-m.at)
	}
	l.toClient.push(legMark{want: d, at: nanotime()})
	return rpcAnswer(d), nil
}

// rpcClient is the load generator's node; it receives nothing.
type rpcClient struct{}

func (rpcClient) HandleMessage(runtime.NodeID, any) {}
func (rpcClient) HandleRequest(runtime.NodeID, any) (any, error) {
	return nil, errors.New("perfbench: the client serves nothing")
}

func (l *rpcLoop) issue() {
	c := &l.cases[l.next%len(l.cases)]
	l.next++
	l.issued++
	l.outstanding++
	start := nanotime()
	tail := start >= l.tailFrom
	if tail {
		l.tailIssued++
	}
	l.toServer.push(legMark{want: c.want, at: start})
	l.m.net[0].Request(l.m.client, l.m.server, c.req, rpcTimeout, func(resp any, err error) {
		now := nanotime()
		l.outstanding--
		switch {
		case err != nil:
			l.timeouts++
		case !rpcAnswerOK(resp, c.want):
			l.wrong++
		default:
			l.ok++
			if tail {
				l.tailOK++
			}
			l.rtt.add(now, now-start)
			if m, ok := l.toClient.pop(); ok && m.want == c.want {
				l.respLg.add(now, now-m.at)
			} else {
				l.misorder++
			}
		}
		if now < l.stopAt {
			l.issue()
		} else if l.outstanding == 0 {
			close(l.done)
		}
	})
}

// mesh is two socknet groups over loopback with their run loops.
type mesh struct {
	tr     [2]*socknet.Transport
	clock  [2]*wallclock.Clock
	net    [2]runtime.Transport // what the workload calls: the transports, or their traced wrappers
	sched  [2]runtime.Clock
	traced [2]*tracedClock
	spans  [2]*spans
	client runtime.NodeID
	server runtime.NodeID
	// setupS is mesh formation: listening, connecting and the
	// handshakes, until both groups are connected. Each group's
	// learning of the other's node (one join frame each way) follows
	// and is not timed: the adaptive write window decides whether that
	// frame waits for a millisecond timer, so it takes 0.02–1.1 ms from
	// one run to the next.
	setupS float64
}

// formMesh listens on two loopback ports, forms the mesh, binds a run
// loop to each group and joins the client and server nodes.
func formMesh(l *rpcLoop, traced bool) (*mesh, error) {
	t0 := nanotime()
	topoCfg := topology.DefaultConfig()
	topoCfg.MinLatency, topoCfg.MaxLatency = 0, 0
	topo, err := topology.New(topoCfg, rnd.New(1).Split("topology"))
	if err != nil {
		return nil, err
	}
	var lis [2]net.Listener
	var peers []string
	for g := range lis {
		if lis[g], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, x := range lis[:g] {
				x.Close()
			}
			return nil, err
		}
		peers = append(peers, lis[g].Addr().String())
	}
	m := &mesh{}
	var errs [2]error
	var wg sync.WaitGroup
	for g := range lis {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m.tr[g], errs[g] = socknet.DialListener(socknet.Config{
				Socket:       runtime.SocketConfig{Listen: peers[g], Peers: peers, Group: g, Codec: rpcCodec},
				Topo:         topo,
				ReadyTimeout: meshReady,
			}, lis[g])
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		m.close()
		return nil, err
	}
	m.setupS = float64(nanotime()-t0) / 1e9
	for g := range m.tr {
		m.clock[g] = wallclock.NewClock()
		m.sched[g], m.net[g] = m.clock[g], m.tr[g]
		if traced {
			m.spans[g] = &spans{}
			m.traced[g] = &tracedClock{inner: m.clock[g], s: m.spans[g], wall: true}
			m.sched[g] = m.traced[g]
			m.net[g] = &tracedTransport{Transport: m.tr[g], s: m.spans[g], net: layerSocknet}
		}
		m.tr[g].Bind(m.sched[g])
	}
	place := runtime.Placement{Pos: topology.Point{X: 0.5, Y: 0.5}}
	m.client = m.net[0].Join(rpcClient{}, place)
	m.server = m.net[1].Join(rpcServer{l: l}, place)
	// The mesh is formed once each group has learnt of the other's
	// node: the join frames have then been written and read.
	for deadline := time.Now().Add(meshReady); !m.tr[0].Alive(m.server) || !m.tr[1].Alive(m.client); {
		if time.Now().After(deadline) {
			m.close()
			return nil, errors.New("socket-rpc: the groups did not learn of each other's nodes")
		}
		time.Sleep(20 * time.Microsecond)
	}
	return m, nil
}

// closeTimeout bounds tearing the mesh down.
const closeTimeout = 10 * time.Second

// close shuts both groups down. A transport whose Close does not
// return within closeTimeout is reported rather than waited for.
func (m *mesh) close() error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, t := range m.tr {
			if t != nil {
				t.Close()
			}
		}
	}()
	select {
	case <-done:
		return nil
	case <-time.After(closeTimeout):
		return errors.New("socket-rpc: socknet Transport.Close did not return")
	}
}

// rpcRun is what one closed-loop measurement yields.
type rpcRun struct {
	loop       *rpcLoop
	runS, cpuS float64
	// Windowed figures, taken before the samples are released.
	rate                           float64
	rttP50, rttP99, reqP50, reqP99 float64 // ns
	respP50                        float64 // ns
	allocBytes, mallocs            uint64
	liveHeap                       uint64
	wire                           socknet.WireStats
	stats                          runtime.TransportStats
}

// runRPCLoop forms the mesh (timed as set-up) and drives the closed
// loop for the given time.
func runRPCLoop(cases []rpcCase, seconds int, traced bool) (*rpcRun, float64, error) {
	codec, err := runtime.NewCodec(rpcCodec)
	if err != nil {
		return nil, 0, err
	}
	l := &rpcLoop{cases: cases, serverCodec: codec, done: make(chan struct{})}
	m, err := formMesh(l, traced)
	if err != nil {
		return nil, 0, err
	}
	l.m = m

	var loops sync.WaitGroup
	for g := range m.clock {
		loops.Add(1)
		go func(c *wallclock.Clock) {
			defer loops.Done()
			c.Run(int64(seconds+60) * runtime.Second)
		}(m.clock[g])
	}
	w0 := [2]socknet.WireStats{m.tr[0].WireStats(), m.tr[1].WireStats()}
	b0, m0 := allocCounts()
	cpu0 := cpuSeconds()
	start := nanotime()
	l.stopAt = start + int64(seconds)*int64(time.Second)
	l.rtt = &windowed{start: start, stopAt: l.stopAt}
	l.reqLeg = &windowed{start: start, stopAt: l.stopAt}
	l.respLg = &windowed{start: start, stopAt: l.stopAt}
	l.tailFrom = start + 2*int64(seconds)*int64(time.Second)/3
	m.sched[0].Schedule(0, func() {
		for i := 0; i < rpcOutstanding; i++ {
			l.issue()
		}
	})
	drained := true
	select {
	case <-l.done:
	case <-time.After(time.Duration(seconds)*time.Second + 2*time.Duration(rpcTimeout)*time.Millisecond):
		drained = false
	}
	run := &rpcRun{loop: l, runS: float64(nanotime()-start) / 1e9}
	run.cpuS = cpuSeconds() - cpu0
	b1, m1 := allocCounts()
	run.allocBytes, run.mallocs = b1-b0, m1-m0
	for g := range m.clock {
		m.clock[g].Stop()
	}
	loops.Wait()
	for _, w := range []*windowed{l.rtt, l.reqLeg, l.respLg} {
		w.flush()
	}
	run.rate = l.rtt.rate()
	run.rttP50, run.rttP99 = l.rtt.median50(), l.rtt.quiet99()
	run.reqP50, run.reqP99 = l.reqLeg.median50(), l.reqLeg.quiet99()
	run.respP50 = l.respLg.median50()
	// Two collections run because the first only moves pooled buffers
	// to the pools' victim caches.
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	run.liveHeap = ms.HeapAlloc
	for g := range m.tr {
		w := m.tr[g].WireStats()
		run.wire.FramesSent += w.FramesSent - w0[g].FramesSent
		run.wire.BatchesSent += w.BatchesSent - w0[g].BatchesSent
		run.wire.BytesSent += w.BytesSent - w0[g].BytesSent
		st := m.tr[g].Stats()
		run.stats.MessagesSent += st.MessagesSent
		run.stats.MessagesDelivered += st.MessagesDelivered
		run.stats.RequestsIssued += st.RequestsIssued
		run.stats.RequestsTimedOut += st.RequestsTimedOut
	}
	if err := m.close(); err != nil {
		return nil, 0, err
	}
	if !drained {
		return nil, 0, fmt.Errorf("%d RPCs still outstanding after the run", l.outstanding)
	}
	return run, m.setupS, nil
}

func runSocketRPC(o options) (*result, error) {
	// One core: the two groups' run loops, readers and writers then
	// take turns on it the same way in every run, instead of however
	// the OS spreads six goroutines over two cores.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	codec, err := runtime.NewCodec(rpcCodec)
	if err != nil {
		return nil, err
	}
	cases, err := makeRequests(o.seed, codec)
	if err != nil {
		return nil, err
	}
	if o.traced {
		return runSocketTraced(cases, o)
	}
	r := newResult()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		m, err := formMesh(&rpcLoop{}, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, m.setupS)
		if err := m.close(); err != nil {
			return nil, err
		}
	}
	run, setupS, err := runRPCLoop(cases, o.seconds, false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, setupS)
	l := run.loop
	checkRPCLoop(r, run)

	m := r.metrics
	m["setup_s"] = median(setups)
	m["run_s"] = run.runS
	m["cpu_s"] = run.cpuS
	m["peak_rss_bytes"] = peakRSSBytes()
	m["live_heap_bytes"] = float64(run.liveHeap)
	m["alloc_bytes"] = float64(run.allocBytes) / float64(l.issued)
	m["allocs_per_op"] = float64(run.mallocs) / float64(l.issued)
	m["lookup_p50_ms"] = run.reqP50 / 1e6
	m["lookup_p99_ms"] = run.reqP99 / 1e6
	m["transfer_p50_ms"] = run.respP50 / 1e6
	m["tail_hit_ratio"] = float64(l.tailOK) / float64(l.tailIssued)
	m["msgs_per_query"] = float64(run.wire.FramesSent) / float64(l.issued)
	m["rpc_per_s"] = run.rate
	m["rpc_p50_us"] = run.rttP50 / 1e3
	m["rpc_p99_us"] = run.rttP99 / 1e3
	r.attempted, r.failed = l.issued, l.timeouts+l.wrong
	r.note("socket-rpc seed %d: %d RPCs (%d outstanding), %d in the final third, %d frames in %d batches, set-up samples %d",
		o.seed, l.issued, rpcOutstanding, l.tailIssued, run.wire.FramesSent, run.wire.BatchesSent, len(setups))
	return r, nil
}

// checkRPCLoop checks a loop's outputs: every answer matched the
// caller's own digest, every issued RPC completed, legs stayed in
// order, and the transports' counters agree.
func checkRPCLoop(r *result, run *rpcRun) {
	l := run.loop
	if l.ok+l.timeouts+l.wrong != l.issued {
		r.problem("%d RPCs completed, %d issued", l.ok+l.timeouts+l.wrong, l.issued)
	}
	if l.wrong > 0 {
		r.problem("%d RPCs got an answer other than the digest of their request", l.wrong)
	}
	if l.serverMisfits > 0 || l.misorder > 0 {
		r.problem("%d requests and %d answers arrived out of issue order or altered", l.serverMisfits, l.misorder)
	}
	if run.stats.RequestsIssued != l.issued || run.stats.RequestsTimedOut != l.timeouts {
		r.problem("transports issued %d requests with %d timeouts, the client %d with %d",
			run.stats.RequestsIssued, run.stats.RequestsTimedOut, l.issued, l.timeouts)
	}
	if l.tailIssued == 0 {
		r.problem("no RPC was issued in the final third of the run")
	}
}

// runSocketTraced makes the traced run: an untraced loop under a CPU
// profile (profile-bucketed layers and GC counters), then a loop over
// traced clocks and transports.
func runSocketTraced(cases []rpcCase, o options) (*result, error) {
	r := newResult()
	profPath := filepath.Join(o.workDir, fmt.Sprintf("perfbench-socket-rpc-%d.pprof", os.Getpid()))
	var ref *rpcRun
	gc, err := profiled(profPath, func() error {
		var err error
		ref, _, err = runRPCLoop(cases, o.seconds, false)
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
	checkRPCLoop(r, ref)

	run, _, err := runRPCLoop(cases, o.seconds, true)
	if err != nil {
		return nil, err
	}
	checkRPCLoop(r, run)
	l, m := run.loop, run.loop.m
	s := &spans{}
	var late []int64
	for g := range m.spans {
		s.add(m.spans[g])
		late = append(late, m.traced[g].lateUs...)
	}
	tr0, tr1 := m.net[0].(*tracedTransport), m.net[1].(*tracedTransport)
	sends, requests := tr0.sends+tr1.sends, tr0.requests+tr1.requests
	checkTransportCounts(r, &tracedTransport{sends: sends, requests: requests}, s, run.stats)

	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	var callbacks uint64
	for _, n := range s.count[kindTimer] {
		callbacks += n
	}
	mt := r.metrics
	mt["socknet.frames_out"] = float64(run.wire.FramesSent)
	mt["socknet.batches_out"] = float64(run.wire.BatchesSent)
	mt["socknet.frames_per_batch"] = float64(run.wire.FramesSent) / float64(run.wire.BatchesSent)
	mt["socknet.bytes_out"] = float64(run.wire.BytesSent)
	mt["socknet.send_s"] = secs(s.selfNs[kindNet][layerSocknet])
	mt["socknet.handle_s"] = secs(s.selfNs[kindTimer][layerSocknet])
	mt["wallclock.callbacks"] = float64(callbacks)
	mt["wallclock.late_p50_us"] = float64(nearestRank(late, 0.50))
	mt["wallclock.late_p99_us"] = float64(nearestRank(late, 0.99))
	r.setLayerSpans(s)
	r.zeroMetrics("sim.events", "sim.scheduled", "sim.cancelled", "sim.fired_ratio", "sim.pending_max", "sim.self_s",
		"sim.ns_per_event", "simnet.sends", "simnet.requests", "simnet.delivered", "simnet.dropped", "simnet.timeouts",
		"simnet.rpc_ok_ratio", "simnet.bytes", "simnet.self_s")

	r.attempted, r.failed = l.issued, l.timeouts+l.wrong
	refRate, rate := float64(ref.loop.ok)/ref.runS, float64(l.ok)/run.runS
	r.note("socket-rpc seed %d: traced %.0f RPC/s, untraced %.0f RPC/s (tracing overhead %.1f%%), %d callbacks",
		o.seed, rate, refRate, 100*(refRate/rate-1), callbacks)
	return r, nil
}
