package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bitswapmon/internal/attacks"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/sweep"
	"bitswapmon/internal/workload"
)

// The capture and replay pipelines below are sweep.ExecuteRun composed step
// by step from public functions, so the benchmark can time each step and
// wrap each layer. TestComposedMatchesExecuteRun keeps them in step with
// ExecuteRun: if ExecuteRun changes, that test fails before the benchmark
// quietly measures an old path.

// runResult is one pipeline iteration's outcome.
type runResult struct {
	Summary *sweep.RunSummary // as sweep.ReadSummary returns it
	Digest  string            // of Summary without ElapsedMS

	Captured int64 // entries the monitors handed their sinks
	Sealed   int64 // entries in the sealed segments (Totals)
	ReadBack int64 // entries read back through Query
	Bytes    int64 // sealed segment bytes
	PerMon   map[string]int

	GatewayIDs map[simnet.NodeID]bool // the world's gateway nodes (capture)

	Setup      time.Duration // the program's set-up call
	SimVirtual time.Duration // virtual time simulated (or replayed)
	SimHost    time.Duration // host time spent simulating
}

// runCapture is ExecuteRun's synthetic path. It writes into dir, which the
// caller creates empty (see resetDir) before timing starts.
func runCapture(dir string, spec sweep.ScenarioSpec, seed int64, p *probe) (*runResult, error) {
	start := time.Now()
	cfg, err := spec.WorkloadConfig(seed)
	if err != nil {
		return nil, err
	}
	cfg.NewEngine = p.engineFactory(cfg.NewEngine)
	res := &runResult{}
	p.beginPhase()
	t0 := time.Now()
	w, err := workload.Build(cfg)
	res.Setup = time.Since(t0)
	p.build.add(res.Setup)
	p.endPhase("setup")
	if err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	if p.traced {
		for _, m := range w.Monitors {
			p.eng.markMonitor(m.ID())
		}
	}

	p.beginPhase()
	simulate := func(d time.Duration) {
		t := time.Now()
		w.Run(d)
		res.SimHost += time.Since(t)
		res.SimVirtual += d
	}
	simulate(spec.Warmup.Std())
	for _, m := range w.Monitors {
		m.ResetTrace()
	}
	stores, stats, closeStores, err := p.openStores(dir, w.Monitors)
	if err != nil {
		return nil, err
	}
	defer closeStores()

	var sampler *monitor.Sampler
	if len(w.Monitors) > 0 {
		sampler = monitor.NewSampler(w.Net, w.Monitors, spec.SampleEvery.Std())
		sampler.Start()
	}
	tick := spec.SampleEvery.Std()
	if tick <= 0 {
		tick = 30 * time.Minute
	}
	var onlineSamples []float64
	var trackOnline func()
	trackOnline = func() {
		onlineSamples = append(onlineSamples, float64(w.OnlineCount()))
		w.Net.After(tick, trackOnline)
	}
	w.Net.After(tick, trackOnline)

	simulate(spec.Window.Std())
	if sampler != nil {
		sampler.Stop()
	}
	sum := &sweep.RunSummary{
		Version:    sweep.SummaryVersion,
		RunID:      "capture",
		Seed:       seed,
		Engine:     spec.Engine,
		Population: w.TotalPopulation(),
	}
	if spec.Probes && len(w.Monitors) > 0 && len(w.Registry.All()) > 0 {
		timeInto(&p.probeRun, func() {
			prober := attacks.NewGatewayProber(w.Net, w.Monitors, w.Net.NewRand("gwprobe"))
			var probes []attacks.ProbeResult
			prober.ProbeAll(w.Registry, func(r []attacks.ProbeResult) { probes = r })
			simulate(time.Duration(len(w.Registry.All())+2) * prober.WaitFor)
			identified, _, _ := attacks.CrossReference(probes, w.Registry.NodeIDs())
			sum.GatewaysProbed = len(probes)
			sum.GatewaysIdentified = identified
		})
	}
	p.endPhase("simulate")

	if err := p.sealStores(w.Monitors, stores); err != nil {
		return nil, err
	}

	p.beginPhase()
	mega := make(map[simnet.NodeID]bool)
	for _, g := range w.Gateways {
		if g.Operator == "megagate" {
			mega[g.Node.ID] = true
		}
	}
	res.GatewayIDs = w.GatewayNodeIDs()
	opts := report.Options{
		Geo:            w.Geo,
		GatewayIDs:     res.GatewayIDs,
		MegagateIDs:    mega,
		BootstrapIters: spec.BootstrapIters,
		Tracer:         w.Tracer(),
	}
	if err := p.summarizeStores(sum, stores, stats, spec.Reports, opts); err != nil {
		return nil, err
	}
	fillMonitorCoverage(sum, w.Monitors, w.TotalPopulation())
	var hits, misses uint64
	for _, g := range w.Gateways {
		st := g.Stats()
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	if hits+misses > 0 {
		sum.GatewayHitRate = float64(hits) / float64(hits+misses)
	}
	if err := p.writeRunTrace(dir, w.Tracer()); err != nil {
		return nil, err
	}
	for _, v := range onlineSamples {
		sum.OnlineAvg += v
	}
	if len(onlineSamples) > 0 {
		sum.OnlineAvg /= float64(len(onlineSamples))
	}
	sum.ElapsedMS = time.Since(start).Milliseconds()
	err = res.finish(dir, sum, stores, p)
	p.endPhase("analyze")
	p.delivered, p.dropped = w.Net.Stats()
	return res, err
}

// runReplay is ExecuteRun's workload_source path, writing into the empty
// dir the caller made. The engine is not wrapped:
// replay drives the serial engine through a *simnet.Network fast path that a
// wrapper would bypass, so replay is timed by phase and by sink instead.
func runReplay(dir string, spec sweep.ScenarioSpec, seed int64, p *probe) (*runResult, error) {
	start := time.Now()
	rs, err := spec.ReplaySpec(seed)
	if err != nil {
		return nil, err
	}
	replayOpts := report.Options{BootstrapIters: spec.BootstrapIters, Tracer: rs.Tracer}
	if err := report.NewDriver(true).AddByName(spec.Reports, replayOpts); err != nil {
		return nil, fmt.Errorf("summary reports for replay run: %w", err)
	}
	res := &runResult{}
	p.beginPhase()
	t0 := time.Now()
	sess, err := replay.Prepare(rs)
	res.Setup = time.Since(t0)
	p.prepare.add(res.Setup)
	p.endPhase("setup")
	if err != nil {
		return nil, fmt.Errorf("prepare replay: %w", err)
	}
	defer sess.Close()

	p.beginPhase()
	monitors := sess.World.Monitors
	stores, stats, closeStores, err := p.openStores(dir, monitors)
	if err != nil {
		return nil, err
	}
	defer closeStores()
	t0 = time.Now()
	drive, err := sess.Drive()
	res.SimHost = time.Since(t0)
	p.drive.add(res.SimHost)
	p.endPhase("simulate")
	if err != nil {
		return nil, fmt.Errorf("replay run: %w", err)
	}
	res.SimVirtual = drive.VirtualDuration
	if err := p.sealStores(monitors, stores); err != nil {
		return nil, err
	}

	p.beginPhase()
	sum := &sweep.RunSummary{
		Version:          sweep.SummaryVersion,
		RunID:            "replay",
		Seed:             seed,
		Engine:           spec.Engine,
		Population:       sess.World.PoolSize(),
		ReplayEvents:     drive.Events,
		ReplayRequesters: drive.Requesters,
	}
	if sess.Model != nil && sess.Model.PowerLaw != nil {
		sum.FittedAlpha = sess.Model.PowerLaw.Alpha
	}
	if err := p.summarizeStores(sum, stores, stats, spec.Reports, replayOpts); err != nil {
		return nil, err
	}
	if err := p.writeRunTrace(dir, sess.World.Tracer()); err != nil {
		return nil, err
	}
	fillMonitorCoverage(sum, monitors, sess.World.PoolSize())
	sum.ElapsedMS = time.Since(start).Milliseconds()
	err = res.finish(dir, sum, stores, p)
	p.endPhase("analyze")
	p.tracer = sess.World.Tracer()
	p.replayEvents, p.replayRequesters = drive.Events, drive.Requesters
	p.delivered, p.dropped = sess.World.Net.Stats()
	return res, err
}

// resetDir empties dir for the next iteration's output. Callers run it before
// starting the clock: deleting the previous output is not program work.
func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("clear run dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("run dir: %w", err)
	}
	return nil
}

// openStores gives every monitor a segment store plus a one-pass aggregator,
// teed behind the probe's counting sink.
func (p *probe) openStores(dir string, monitors []*monitor.Monitor) ([]*ingest.SegmentStore, []*ingest.OnlineStats, func(), error) {
	stores := make([]*ingest.SegmentStore, len(monitors))
	stats := make([]*ingest.OnlineStats, len(monitors))
	closeStores := func() {
		for _, store := range stores {
			if store != nil {
				store.Close()
			}
		}
	}
	for i, m := range monitors {
		var err error
		timeInto(&p.open, func() {
			stores[i], err = ingest.OpenSegmentStore(filepath.Join(dir, "mon-"+m.Name+".segments"), ingest.SegmentOptions{})
		})
		if err != nil {
			closeStores()
			return nil, nil, nil, err
		}
		stats[i] = ingest.NewOnlineStats(ingest.StatsOptions{Bucket: time.Hour})
		m.SetSink(p.monitorSink(stores[i], stats[i]))
	}
	p.stores = stores
	return stores, stats, closeStores, nil
}

func (p *probe) sealStores(monitors []*monitor.Monitor, stores []*ingest.SegmentStore) error {
	p.beginPhase()
	defer p.endPhase("seal")
	for i, m := range monitors {
		var err error
		timeInto(&p.seal, func() { err = stores[i].Close() })
		if err != nil {
			return fmt.Errorf("seal store for monitor %s: %w", m.Name, err)
		}
		if err := m.SinkErr(); err != nil {
			return fmt.Errorf("monitor %s sink: %w", m.Name, err)
		}
	}
	return nil
}

// summarizeStores is the sweep runner's streaming summary pass: Query every
// store, unify, and tee through summary, traffic and the spec's extras.
func (p *probe) summarizeStores(sum *sweep.RunSummary, stores []*ingest.SegmentStore, stats []*ingest.OnlineStats, extra []string, opts report.Options) error {
	sources := make([]ingest.EntrySource, len(stores))
	for i, store := range stores {
		it, err := store.Query(time.Time{}, time.Time{}, nil)
		if err != nil {
			return err
		}
		defer it.Close()
		sources[i] = p.source(it)
	}
	drv := report.NewDriver(true)
	if err := p.addReports(drv, append([]string{"summary", "traffic"}, extra...), opts); err != nil {
		return fmt.Errorf("summary reports: %w", err)
	}
	if err := drv.Run(p.unified(ingest.NewStreamUnifier(sources...))); err != nil {
		return fmt.Errorf("summarize run: %w", err)
	}
	results, err := drv.Finalize()
	if err != nil {
		return fmt.Errorf("summarize run: %w", err)
	}
	s := results.Get("summary").(*report.SummaryResult).Summary
	traffic := results.Get("traffic").(*report.Traffic)
	sum.Entries = s.Entries
	sum.Requests = s.Requests
	sum.UniquePeers = s.UniquePeers
	sum.UniqueCIDs = s.UniqueCIDs
	sum.DedupEntries = traffic.DedupEntries
	sum.DedupRequests = traffic.DedupRequests
	sum.RebroadShare = traffic.RebroadShare
	sum.GatewayShare = traffic.GatewayShare
	sum.PerType = make(map[string]int, len(s.PerType))
	for t, n := range s.PerType {
		sum.PerType[t.String()] = n
	}
	for _, st := range stats {
		sum.DistinctPeersEst += st.DistinctPeers()
		sum.DistinctCIDsEst += st.DistinctCIDs()
	}
	if len(extra) > 0 {
		if sum.Metrics == nil {
			sum.Metrics = make(map[string]float64)
		}
		for _, name := range extra {
			for k, v := range results.Get(name).Metrics() {
				sum.Metrics[name+":"+k] = v
			}
		}
	}
	return nil
}

// fillMonitorCoverage derives coverage and overlap from the monitors'
// Bitswap-active peer sets against the given population size.
func fillMonitorCoverage(sum *sweep.RunSummary, monitors []*monitor.Monitor, population int) {
	sum.MonitorCoverage = make(map[string]float64, len(monitors))
	union := make(map[simnet.NodeID]int)
	for _, m := range monitors {
		active := m.BitswapActivePeers()
		if population > 0 {
			sum.MonitorCoverage[m.Name] = float64(len(active)) / float64(population)
		}
		for id := range active {
			union[id]++
		}
	}
	if len(union) > 0 && len(monitors) > 1 {
		inAll := 0
		for _, n := range union {
			if n == len(monitors) {
				inAll++
			}
		}
		sum.PeerOverlap = float64(inAll) / float64(len(union))
	}
}

func (p *probe) writeRunTrace(dir string, tr *otrace.Tracer) error {
	if tr == nil {
		return nil
	}
	var err error
	timeInto(&p.export, func() { err = tr.WriteFiles(filepath.Join(dir, "trace.json")) })
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// finish writes summary.json as the sweep runner does, reads it back through
// sweep.ReadSummary (which completes the metrics map) and records the
// counts the output checks compare.
func (r *runResult) finish(dir string, sum *sweep.RunSummary, stores []*ingest.SegmentStore, p *probe) error {
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "summary.json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if r.Summary, err = sweep.ReadSummary(path); err != nil {
		return err
	}
	if r.Digest, err = summaryDigest(r.Summary); err != nil {
		return err
	}
	r.Captured = p.captured()
	r.ReadBack = p.read.n.Load()
	r.PerMon = make(map[string]int)
	for _, s := range stores {
		t := s.Totals()
		r.Sealed += int64(t.Entries)
		for mon, n := range t.PerMonitor {
			r.PerMon[mon] += n
		}
	}
	r.Bytes, err = storeBytes(stores)
	return err
}

// summaryDigest hashes a summary's JSON without the wall-clock field.
func summaryDigest(s *sweep.RunSummary) (string, error) {
	c := *s
	c.ElapsedMS = 0
	blob, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:8]), nil
}
