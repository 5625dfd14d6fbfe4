package main

import (
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowercdn/internal/runtime"
)

// This file is the traced run's instrumentation. It sits entirely on
// the runtime seam every protocol already goes through: a Clock
// wrapper times each scheduled callback, a Transport wrapper times
// Send/Request, and a Handler wrapper times message handling. Nothing
// inside the program is touched; spans are aggregated per layer as a
// count and a self time, never kept one by one.

// layer is a module of the program that spans are attributed to.
type layer uint8

const (
	layerSim layer = iota
	layerSimnet
	layerChord
	layerKoorde
	layerGossip
	layerFlower
	layerWorkload
	layerChurn
	layerHarness
	layerSocknet
	layerWallclock
	layerOther
	numLayers
)

var layerNames = [numLayers]string{
	"sim", "simnet", "chord", "koorde", "gossip", "flower", "workload",
	"churn", "harness", "socknet", "wallclock", "other",
}

// spanKind separates what a span timed, so a layer's callbacks,
// handlers and transport calls are reported apart.
type spanKind uint8

const (
	kindTimer  spanKind = iota // a scheduled callback
	kindHandle                 // Handler.HandleMessage / HandleRequest
	kindNet                    // Transport.Send / Request
	numKinds
)

const internalPrefix = "flowercdn/internal/"

// layerOfPkg maps an import path to its layer.
func layerOfPkg(path string) layer {
	if !strings.HasPrefix(path, internalPrefix) {
		return layerOther
	}
	name := strings.TrimPrefix(path, internalPrefix)
	for l, n := range layerNames {
		if n == name {
			return layer(l)
		}
	}
	return layerOther
}

// funcPkg returns the import path of a fully qualified function name
// such as "flowercdn/internal/chord.(*Node).stabilize".
func funcPkg(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// callerLayers caches the layer of each scheduling call site.
var callerLayers sync.Map // uintptr -> layer

// schedulerLayer attributes a Schedule/At/Every call to the module
// that made it: the first flowercdn/internal frame above the skip
// frames that sit between schedulerLayer and that call. Inside
// Send/Request that frame is the transport itself, so delivery and
// RPC-leg callbacks land on simnet (or socknet).
func schedulerLayer(skip int) layer {
	var pc [1]uintptr
	// Callers counts itself and schedulerLayer as frames 0 and 1.
	if goruntime.Callers(skip+2, pc[:]) == 0 {
		return layerOther
	}
	if l, ok := callerLayers.Load(pc[0]); ok {
		return l.(layer)
	}
	var pcs [8]uintptr
	n := goruntime.Callers(skip+2, pcs[:])
	l := layerOther
	frames := goruntime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if pkg := funcPkg(f.Function); strings.HasPrefix(pkg, internalPrefix) {
			l = layerOfPkg(pkg)
			break
		}
		if !more {
			break
		}
	}
	callerLayers.Store(pc[0], l)
	return l
}

// msgLayers caches the layer of each message type: handling time is
// attributed to the Go package that defines the message.
var msgLayers sync.Map // reflect.Type -> layer

func msgLayer(msg any) layer {
	t := reflect.TypeOf(msg)
	if t == nil {
		return layerOther
	}
	if l, ok := msgLayers.Load(t); ok {
		return l.(layer)
	}
	base := t
	for base.Kind() == reflect.Pointer {
		base = base.Elem()
	}
	l := layerOfPkg(base.PkgPath())
	msgLayers.Store(t, l)
	return l
}

var epoch = time.Now()

// nanotime reads the monotonic clock.
func nanotime() int64 { return int64(time.Since(epoch)) }

type spanFrame struct {
	l     layer
	k     spanKind
	start int64
	child int64
}

// spans is the per-run-loop span stack with its per-layer aggregates.
// Only the run loop's goroutine touches it.
type spans struct {
	stack []spanFrame
	count [numKinds][numLayers]uint64
	// selfNs is each layer's span time minus the child spans nested
	// inside it; topNs sums the outermost spans, so the run loop's own
	// time is its wall time minus topNs.
	selfNs [numKinds][numLayers]int64
	topNs  int64
	// begun counts spans begun; each ended one is in count.
	begun uint64
	// handledReqs counts HandleRequest calls: each sends a response
	// leg the transport counts as a message.
	handledReqs uint64
}

func (s *spans) begin(l layer, k spanKind) {
	s.begun++
	s.stack = append(s.stack, spanFrame{l: l, k: k, start: nanotime()})
}

func (s *spans) end() {
	n := len(s.stack) - 1
	f := s.stack[n]
	s.stack = s.stack[:n]
	d := nanotime() - f.start
	s.count[f.k][f.l]++
	s.selfNs[f.k][f.l] += d - f.child
	if n > 0 {
		s.stack[n-1].child += d
	} else {
		s.topNs += d
	}
}

// resetTimes drops the span times gathered so far (set-up work before
// the loop starts) and keeps the counts.
func (s *spans) resetTimes() {
	s.selfNs = [numKinds][numLayers]int64{}
	s.topNs = 0
}

// add folds another loop's aggregates into s.
func (s *spans) add(o *spans) {
	for k := range s.count {
		for l := range s.count[k] {
			s.count[k][l] += o.count[k][l]
			s.selfNs[k][l] += o.selfNs[k][l]
		}
	}
	s.topNs += o.topNs
	s.begun += o.begun
	s.handledReqs += o.handledReqs
}

// tracedClock times every callback scheduled through it.
type tracedClock struct {
	inner runtime.Clock
	s     *spans
	// pending, when set, reads the queue depth at every firing.
	pending func() int
	// wall marks a wall-clock run loop: firings then record how late
	// they ran against the time they were due.
	wall bool

	scheduled  atomic.Uint64 // one-shot timers created
	cancelled  atomic.Uint64 // Cancel calls that stopped a one-shot timer
	fired      uint64        // one-shot timers that ran
	pendingMax int
	lateUs     []int64 // wall loops only, one per firing
}

var _ runtime.Clock = (*tracedClock)(nil)

func (c *tracedClock) Now() int64 { return c.inner.Now() }

// layerOfSchedule attributes a scheduling call made through c. On the
// deterministic engine every call runs on the loop's goroutine, so a
// call made inside a Send/Request span belongs to the transport
// without a stack walk.
func (c *tracedClock) layerOfSchedule() layer {
	if !c.wall {
		if n := len(c.s.stack); n > 0 && c.s.stack[n-1].k == kindNet {
			return c.s.stack[n-1].l
		}
	}
	// Skip this method and the Schedule/At/Every method.
	return schedulerLayer(2)
}
func (c *tracedClock) Stop() { c.inner.Stop() }

func (c *tracedClock) Schedule(delay int64, fn func()) runtime.Timer {
	c.scheduled.Add(1)
	if delay < 0 {
		delay = 0
	}
	return &tracedTimer{Timer: c.inner.Schedule(delay, c.wrap(c.layerOfSchedule(), delay, 0, fn)), c: c}
}

func (c *tracedClock) At(t int64, fn func()) runtime.Timer {
	c.scheduled.Add(1)
	delay := t - c.inner.Now()
	if delay < 0 {
		delay = 0
	}
	return &tracedTimer{Timer: c.inner.At(t, c.wrap(c.layerOfSchedule(), delay, 0, fn)), c: c}
}

func (c *tracedClock) Every(firstDelay, period int64, fn func()) runtime.Ticker {
	return c.inner.Every(firstDelay, period, c.wrap(c.layerOfSchedule(), firstDelay, period, fn))
}

// wrap returns fn timed as a span of layer l. On a wall-clock loop the
// firing's lateness is measured against its due time, which a periodic
// callback advances by its period after every firing.
func (c *tracedClock) wrap(l layer, delay, period int64, fn func()) func() {
	var due int64
	if c.wall {
		due = nanotime() + delay*int64(time.Millisecond)
	}
	return func() {
		if c.wall {
			late := (nanotime() - due) / int64(time.Microsecond)
			if late < 0 {
				late = 0 // the loop's millisecond deadlines round down
			}
			c.lateUs = append(c.lateUs, late)
			due += period * int64(time.Millisecond)
		}
		if period == 0 {
			c.fired++
		}
		if c.pending != nil {
			if p := c.pending(); p > c.pendingMax {
				c.pendingMax = p
			}
		}
		c.s.begin(l, kindTimer)
		fn()
		c.s.end()
	}
}

// tracedTimer counts effective cancellations.
type tracedTimer struct {
	runtime.Timer
	c *tracedClock
}

func (t *tracedTimer) Cancel() bool {
	ok := t.Timer.Cancel()
	if ok {
		t.c.cancelled.Add(1)
	}
	return ok
}

// tracedTransport times Send/Request and wraps every joining handler.
// Its own call counts are checked against the transport's stats.
type tracedTransport struct {
	runtime.Transport
	s   *spans
	net layer // simnet or socknet

	sends, requests, rpcOK uint64
}

func (t *tracedTransport) Join(h runtime.Handler, place runtime.Placement) runtime.NodeID {
	return t.Transport.Join(&tracedHandler{h: h, s: t.s}, place)
}

func (t *tracedTransport) Send(from, to runtime.NodeID, msg any) {
	t.sends++
	t.s.begin(t.net, kindNet)
	t.Transport.Send(from, to, msg)
	t.s.end()
}

func (t *tracedTransport) Request(from, to runtime.NodeID, req any, timeout int64, cb func(resp any, err error)) {
	t.requests++
	t.s.begin(t.net, kindNet)
	t.Transport.Request(from, to, req, timeout, func(resp any, err error) {
		if err == nil {
			t.rpcOK++
		}
		cb(resp, err)
	})
	t.s.end()
}

// tracedHandler times a node's message handling.
type tracedHandler struct {
	h runtime.Handler
	s *spans
}

func (h *tracedHandler) HandleMessage(from runtime.NodeID, msg any) {
	h.s.begin(msgLayer(msg), kindHandle)
	h.h.HandleMessage(from, msg)
	h.s.end()
}

func (h *tracedHandler) HandleRequest(from runtime.NodeID, req any) (any, error) {
	h.s.handledReqs++
	h.s.begin(msgLayer(req), kindHandle)
	resp, err := h.h.HandleRequest(from, req)
	h.s.end()
	return resp, err
}
