package main

import (
	"os"
	"runtime"
	"time"

	"bitswapmon/internal/engine"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/obs"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
)

// phases are the spans of one pipeline iteration that runtime statistics are
// split by: the program's set-up call, simulation (or replay drive), sealing
// the segment stores, and the read-unify-report pass.
var phases = []string{"setup", "simulate", "seal", "analyze"}

// probe collects one iteration's layer metrics. A plain probe (traced false)
// adds no timers: it only counts the entries each monitor hands its sink,
// which the output checks need. A traced probe wraps the engine factory,
// sinks, sources and reports with timers and reads the obs counters.
type probe struct {
	traced bool

	eng    *engineClock
	obs    *obs.Registry
	shards int // worker goroutines of the wrapped engine

	// wrapSink, when set, sits between each monitor's counting sink and its
	// store: tests use it to lose an entry and see the checks fail.
	wrapSink func(ingest.Sink) ingest.Sink

	build, prepare, drive, probeRun, export meter
	open, seal, read, unify                 meter
	sink, storeWrite, statsWrite            meter
	stores                                  []*ingest.SegmentStore
	sinks                                   []*countingSink
	reports                                 map[string]*[2]meter
	unifyOut, rebroadcast, interMonitor     int64
	delivered, dropped                      uint64
	replayEvents, replayRequesters          int
	tracer                                  *otrace.Tracer

	phaseStart runtime.MemStats
	phase      map[string][3]float64 // alloc MB, GC cycles, GC pause s
}

func newProbe(traced bool) *probe {
	p := &probe{traced: traced, reports: make(map[string]*[2]meter), phase: make(map[string][3]float64)}
	if traced {
		p.eng = newEngineClock()
		p.obs = obs.NewRegistry()
	}
	return p
}

// engineFactory returns the engine factory to hand the program: the plain
// run's own factory, or that factory behind the layer timers. A nil factory
// means the program's default, the serial simnet engine, which is built here
// exactly as workload.Build and replay.Build build it.
func (p *probe) engineFactory(f func(time.Time, int64) engine.Engine) func(time.Time, int64) engine.Engine {
	if !p.traced {
		return f
	}
	if f == nil {
		f = func(start time.Time, seed int64) engine.Engine { return simnet.New(start, seed, nil) }
	}
	return func(start time.Time, seed int64) engine.Engine {
		inner := f(start, seed)
		p.shards = 1
		if s, ok := inner.(interface{ Shards() int }); ok {
			p.shards = s.Shards()
		}
		return wrapEngine(inner, p.eng)
	}
}

// monitorSink wraps one monitor's sink: store and one-pass stats, teed.
func (p *probe) monitorSink(store *ingest.SegmentStore, stats *ingest.OnlineStats) *countingSink {
	var dst ingest.Sink
	if p.traced {
		dst = ingest.Tee(&countingSink{dst: store, m: &p.storeWrite}, &countingSink{dst: stats, m: &p.statsWrite})
	} else {
		dst = ingest.Tee(store, stats)
	}
	if p.wrapSink != nil {
		dst = p.wrapSink(dst)
	}
	s := &countingSink{dst: dst}
	if p.traced {
		s.m = &p.sink
	}
	p.sinks = append(p.sinks, s)
	return s
}

func (p *probe) captured() int64 {
	var n int64
	for _, s := range p.sinks {
		n += s.n.Load()
	}
	return n
}

// source wraps a store query: counted always (the capture check compares
// entries read back with entries sealed), timed when traced.
func (p *probe) source(src ingest.EntrySource) ingest.EntrySource {
	return &countingSource{src: src, m: &p.read, timed: p.traced}
}

// unified wraps the unifier's output: it always counts entries by flag (the
// analyze check compares them with the reference) and, traced, samples the
// time of Read.
func (p *probe) unified(u ingest.EntrySource) ingest.EntrySource {
	return &flagCounter{src: u, p: p}
}

type flagCounter struct {
	src ingest.EntrySource
	p   *probe
}

func (f *flagCounter) Read() (trace.Entry, error) {
	var e trace.Entry
	var err error
	if f.p.traced && f.p.unify.sample() {
		t0 := time.Now()
		e, err = f.src.Read()
		f.p.unify.addSample(time.Since(t0))
	} else {
		e, err = f.src.Read()
	}
	if err == nil {
		f.p.unifyOut++
		if e.Flags&trace.FlagRebroadcast != 0 {
			f.p.rebroadcast++
		}
		if e.Flags&trace.FlagInterMonitorDup != 0 {
			f.p.interMonitor++
		}
	}
	return e, err
}

// addReports attaches the named registered reports to drv, each behind a
// timer when traced.
func (p *probe) addReports(drv *report.Driver, names []string, opts report.Options) error {
	for _, name := range names {
		r, err := report.New(name, opts)
		if err != nil {
			return err
		}
		if p.traced {
			m := new([2]meter)
			p.reports[name] = m
			r = &timedReport{r: r, observe: &m[0], fin: &m[1]}
		}
		drv.Add(name, r)
	}
	return nil
}

// timeInto runs fn and adds its duration to m.
func timeInto(m *meter, fn func()) {
	t0 := time.Now()
	fn()
	m.add(time.Since(t0))
}

// beginPhase and endPhase bracket one phase's runtime statistics. They read
// runtime.MemStats, which stops the world briefly, so only traced probes
// call ReadMemStats.
func (p *probe) beginPhase() {
	if p.traced {
		runtime.ReadMemStats(&p.phaseStart)
	}
}

func (p *probe) endPhase(name string) {
	if !p.traced {
		return
	}
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	prev := p.phase[name]
	p.phase[name] = [3]float64{
		prev[0] + float64(now.TotalAlloc-p.phaseStart.TotalAlloc)/(1<<20),
		prev[1] + float64(now.NumGC-p.phaseStart.NumGC),
		prev[2] + time.Duration(now.PauseTotalNs-p.phaseStart.PauseTotalNs).Seconds(),
	}
}

// storeBytes sums the sealed segment file sizes of the given stores.
func storeBytes(stores []*ingest.SegmentStore) (int64, error) {
	var n int64
	for _, s := range stores {
		for _, seg := range s.Segments() {
			st, err := os.Stat(seg.Path)
			if err != nil {
				return 0, err
			}
			n += st.Size()
		}
	}
	return n, nil
}
