package main

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bitswapmon/internal/engine"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
)

// meter accumulates host time and a count. It is safe for concurrent use:
// under the sharded engine, handlers and timers run on several goroutines.
type meter struct {
	ns    atomic.Int64
	n     atomic.Int64
	calls atomic.Int64 // calls seen by sample
}

func (m *meter) add(d time.Duration) {
	m.ns.Add(int64(d))
	m.n.Add(1)
}

// sampleEvery is how often the per-entry wrappers (sinks, sources, the
// unifier, report Observe) time a call: one call in sampleEvery, its time
// counted sampleEvery times. Timing every call would cost about as much as
// the calls being timed.
const sampleEvery = 16

// sample reports whether to time this call.
func (m *meter) sample() bool { return m.calls.Add(1)%sampleEvery == 1 }

// addSample adds a sampled call's time, less the clock reads' own cost,
// scaled to the calls it stands for.
func (m *meter) addSample(d time.Duration) { m.ns.Add(int64(max(d-clockCost, 0)) * sampleEvery) }

// clockCost is what timing an empty call measures: the median of a thousand
// back-to-back clock reads.
var clockCost = func() time.Duration {
	ds := make([]float64, 1000)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(quantile(ds, 0.5))
}()

func (m *meter) seconds() float64 { return time.Duration(m.ns.Load()).Seconds() }
func (m *meter) count() float64   { return float64(m.n.Load()) }

// Layers that receive handler and timer time. Messages are classified by the
// package of their Go type, timer callbacks by the package of the closure
// that was scheduled.
type layer int

const (
	layerBitswap layer = iota
	layerDHT
	layerWorkload
	layerMonitor
	layerOther
	numLayers
)

var layerNames = [numLayers]string{"bitswap", "dht", "workload", "monitor", "other"}

// engineClock is the engine layer's timers, filled by timedEngine.
type engineClock struct {
	run     meter        // Run/RunUntil
	sends   atomic.Int64 // Send/SendTraced calls
	timers  atomic.Int64 // After/At/AfterOn/Post calls
	handle  [numLayers]meter
	timerCB [numLayers]meter

	// handlers indexes the wrapped handlers by node. AddNode runs only at
	// build time or between Run calls, so it needs no lock against handlers.
	handlers map[simnet.NodeID]*timedHandler

	msgLayer   sync.Map // reflect.Type -> layer
	timerLayer sync.Map // uintptr (closure code pointer) -> layer
}

func newEngineClock() *engineClock {
	return &engineClock{handlers: make(map[simnet.NodeID]*timedHandler)}
}

// markMonitor attributes messages delivered to id to the monitor layer.
// Call it before the run the attribution should cover.
func (c *engineClock) markMonitor(id simnet.NodeID) {
	if h := c.handlers[id]; h != nil {
		h.monitor = true
	}
}

func (c *engineClock) classifyMsg(msg any) layer {
	t := reflect.TypeOf(msg)
	if l, ok := c.msgLayer.Load(t); ok {
		return l.(layer)
	}
	pt := t
	for pt != nil && pt.Kind() == reflect.Pointer {
		pt = pt.Elem()
	}
	l := layerOther
	if pt != nil {
		switch pkgBase(pt.PkgPath()) {
		case "wire", "bitswap":
			l = layerBitswap
		case "dht":
			l = layerDHT
		}
	}
	c.msgLayer.Store(t, l)
	return l
}

func (c *engineClock) classifyTimer(fn func()) layer {
	pc := reflect.ValueOf(fn).Pointer()
	if l, ok := c.timerLayer.Load(pc); ok {
		return l.(layer)
	}
	l := layerOther
	if f := runtime.FuncForPC(pc); f != nil {
		switch funcPackage(f.Name()) {
		case "bitswap":
			l = layerBitswap
		case "dht", "node":
			// node's only timer is the periodic DHT refresh.
			l = layerDHT
		case "workload":
			l = layerWorkload
		case "monitor":
			l = layerMonitor
		}
	}
	c.timerLayer.Store(pc, l)
	return l
}

// pkgBase returns the last element of an import path.
func pkgBase(path string) string {
	return path[strings.LastIndex(path, "/")+1:]
}

// funcPackage returns the last import-path element of a fully qualified
// function name such as
// "bitswapmon/internal/workload.(*World).scheduleNextRequest.func1".
func funcPackage(name string) string {
	name = name[strings.LastIndex(name, "/")+1:]
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	return name
}

// timedEngine wraps the engine the plain run builds. Embedding forwards every
// engine.Engine method; the overrides below only add timing and counting
// around the call they forward, so the simulation itself is unchanged.
type timedEngine struct {
	engine.Engine
	c *engineClock
}

// wrapEngine returns inner behind the layer timers, keeping the optional
// engine.Tracing capability exactly when inner has it.
func wrapEngine(inner engine.Engine, c *engineClock) engine.Engine {
	te := &timedEngine{Engine: inner, c: c}
	if tr := engine.TracingOf(inner); tr != nil {
		return &timedTracingEngine{timedEngine: te, tr: tr}
	}
	return te
}

func (e *timedEngine) Run(d time.Duration) {
	t0 := time.Now()
	e.Engine.Run(d)
	e.c.run.add(time.Since(t0))
}

func (e *timedEngine) RunUntil(deadline time.Time) {
	t0 := time.Now()
	e.Engine.RunUntil(deadline)
	e.c.run.add(time.Since(t0))
}

func (e *timedEngine) Send(from, to engine.NodeID, msg any) error {
	e.c.sends.Add(1)
	return e.Engine.Send(from, to, msg)
}

func (e *timedEngine) timed(fn func()) func() {
	e.c.timers.Add(1)
	m := &e.c.timerCB[e.c.classifyTimer(fn)]
	return func() {
		t0 := time.Now()
		fn()
		m.add(time.Since(t0))
	}
}

func (e *timedEngine) After(d time.Duration, fn func()) { e.Engine.After(d, e.timed(fn)) }
func (e *timedEngine) At(t time.Time, fn func())        { e.Engine.At(t, e.timed(fn)) }
func (e *timedEngine) AfterOn(id engine.NodeID, d time.Duration, fn func()) {
	e.Engine.AfterOn(id, d, e.timed(fn))
}
func (e *timedEngine) Post(id engine.NodeID, fn func()) { e.Engine.Post(id, e.timed(fn)) }

func (e *timedEngine) AddNode(id engine.NodeID, addr string, region engine.Region, maxConns int, h engine.Handler) error {
	th := &timedHandler{h: h, c: e.c}
	e.c.handlers[id] = th
	return e.Engine.AddNode(id, addr, region, maxConns, th)
}

// timedTracingEngine is timedEngine for engines with the Tracing capability.
type timedTracingEngine struct {
	*timedEngine
	tr engine.Tracing
}

func (e *timedTracingEngine) SetTracer(t *otrace.Tracer) { e.tr.SetTracer(t) }
func (e *timedTracingEngine) Tracer() *otrace.Tracer     { return e.tr.Tracer() }
func (e *timedTracingEngine) SendTraced(tc otrace.Ctx, hop string, from, to engine.NodeID, msg any) error {
	e.c.sends.Add(1)
	return e.tr.SendTraced(tc, hop, from, to, msg)
}
func (e *timedTracingEngine) InboundCtx(id engine.NodeID) otrace.Ctx { return e.tr.InboundCtx(id) }
func (e *timedTracingEngine) EventTime(id engine.NodeID) time.Time   { return e.tr.EventTime(id) }

// timedHandler times message delivery into one node. Connection callbacks
// run synchronously inside Connect/SetOnline, so their time stays with
// whichever callback made that call.
type timedHandler struct {
	h       engine.Handler
	c       *engineClock
	monitor bool
}

func (t *timedHandler) HandleMessage(from engine.NodeID, msg any) {
	l := layerMonitor
	if !t.monitor {
		l = t.c.classifyMsg(msg)
	}
	t0 := time.Now()
	t.h.HandleMessage(from, msg)
	t.c.handle[l].add(time.Since(t0))
}

func (t *timedHandler) PeerConnected(p engine.NodeID)    { t.h.PeerConnected(p) }
func (t *timedHandler) PeerDisconnected(p engine.NodeID) { t.h.PeerDisconnected(p) }

// countingSink forwards every entry to dst and counts it; with m set it also
// samples the call's time. The plain run counts (the capture checks need the
// number of entries a monitor handed to its sink); the traced run also times.
type countingSink struct {
	dst ingest.Sink
	n   atomic.Int64
	m   *meter
}

func (s *countingSink) Write(e trace.Entry) error {
	s.n.Add(1)
	if s.m == nil || !s.m.sample() {
		return s.dst.Write(e)
	}
	t0 := time.Now()
	err := s.dst.Write(e)
	s.m.addSample(time.Since(t0))
	return err
}

// countingSource counts the entries read from src; with timed set it also
// samples the time of Read.
type countingSource struct {
	src   ingest.EntrySource
	m     *meter
	timed bool
}

func (s *countingSource) Read() (trace.Entry, error) {
	var e trace.Entry
	var err error
	if s.timed && s.m.sample() {
		t0 := time.Now()
		e, err = s.src.Read()
		s.m.addSample(time.Since(t0))
	} else {
		e, err = s.src.Read()
	}
	if err == nil {
		s.m.n.Add(1)
	}
	return e, err
}

// timedReport times one registered report's Finalize call and samples the
// time of its Observe calls.
type timedReport struct {
	r            report.Report
	observe, fin *meter
}

func (t *timedReport) WantsDedup() bool { return t.r.WantsDedup() }

func (t *timedReport) Observe(e trace.Entry) error {
	t.observe.n.Add(1)
	if !t.observe.sample() {
		return t.r.Observe(e)
	}
	t0 := time.Now()
	err := t.r.Observe(e)
	t.observe.addSample(time.Since(t0))
	return err
}

func (t *timedReport) Finalize() (report.Result, error) {
	t0 := time.Now()
	res, err := t.r.Finalize()
	t.fin.add(time.Since(t0))
	return res, err
}
