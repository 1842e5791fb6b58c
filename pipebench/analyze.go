package main

import (
	"fmt"
	"maps"
	"time"

	"bitswapmon/internal/geoip"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/report"
	"bitswapmon/internal/trace"
)

// analyzeReports is every registered report that works without the
// program's tracer: what bsanalyze -report runs over a recorded trace.
func analyzeReports() []string {
	var names []string
	for _, n := range report.Names() {
		if n != "latency_breakdown" {
			names = append(names, n)
		}
	}
	return names
}

// analyzeResult is one analyze iteration's outcome.
type analyzeResult struct {
	Setup time.Duration // OpenSegmentStore calls
	Wall  time.Duration
}

// runAnalyze is bsanalyze -report <all> over the input's segment stores:
// Query, StreamUnifier, and one report.Driver pass. It returns an error when
// the output differs from the batch trace.Unify reference.
func runAnalyze(in *input, p *probe) (*analyzeResult, error) {
	start := time.Now()
	res := &analyzeResult{}
	p.beginPhase()
	stores := make([]*ingest.SegmentStore, len(in.Dirs))
	for i, dir := range in.Dirs {
		var err error
		timeInto(&p.open, func() { stores[i], err = ingest.OpenSegmentStore(dir, ingest.SegmentOptions{}) })
		if err != nil {
			return nil, err
		}
	}
	res.Setup = time.Duration(p.open.ns.Load())
	p.endPhase("setup")

	p.beginPhase()
	sources := make([]ingest.EntrySource, len(stores))
	for i, store := range stores {
		it, err := store.Query(time.Time{}, time.Time{}, nil)
		if err != nil {
			return nil, err
		}
		defer it.Close()
		sources[i] = p.source(it)
	}
	// BootstrapIters stays 0: the reports' default, which bsanalyze's
	// -bootstrap flag also defaults to.
	opts := report.Options{
		Geo:         geoip.New(),
		GatewayIDs:  in.GatewayIDs,
		MegagateIDs: in.MegagateIDs,
	}
	drv := report.NewDriver(true)
	if err := p.addReports(drv, analyzeReports(), opts); err != nil {
		return nil, err
	}
	if err := drv.Run(p.unified(ingest.NewStreamUnifier(sources...))); err != nil {
		return nil, err
	}
	results, err := drv.Finalize()
	p.endPhase("analyze")
	if err != nil {
		return nil, err
	}
	err = checkAnalyze(in, p, results)
	res.Wall = time.Since(start)
	return res, err
}

// checkAnalyze compares the streaming pass with the batch reference: every
// entry read back, the same flag counts, the same summary and traffic.
func checkAnalyze(in *input, p *probe, results report.Results) error {
	ref := in.Ref
	if got := p.read.n.Load(); got != int64(in.Entries) {
		return fmt.Errorf("analyze: read back %d entries, input has %d", got, in.Entries)
	}
	if p.unifyOut != int64(ref.Summary.Entries) || p.rebroadcast != int64(ref.Summary.Rebroadcasts) ||
		p.interMonitor != int64(ref.Summary.InterMonDups) {
		return fmt.Errorf("analyze: unifier emitted %d entries (%d rebroadcast, %d inter-monitor), reference %d (%d, %d)",
			p.unifyOut, p.rebroadcast, p.interMonitor, ref.Summary.Entries, ref.Summary.Rebroadcasts, ref.Summary.InterMonDups)
	}
	s := results.Get("summary").(*report.SummaryResult).Summary
	if !summariesEqual(s, ref.Summary) {
		return fmt.Errorf("analyze: summary %+v differs from reference %+v", s, ref.Summary)
	}
	if t := *results.Get("traffic").(*report.Traffic); t != ref.Traffic {
		return fmt.Errorf("analyze: traffic %+v differs from reference %+v", t, ref.Traffic)
	}
	return nil
}

func summariesEqual(a, b trace.Summary) bool {
	return a.Entries == b.Entries && a.Requests == b.Requests &&
		a.UniquePeers == b.UniquePeers && a.UniqueCIDs == b.UniqueCIDs &&
		a.Rebroadcasts == b.Rebroadcasts && a.InterMonDups == b.InterMonDups &&
		a.First.Equal(b.First) && a.Last.Equal(b.Last) &&
		maps.Equal(a.PerMonitor, b.PerMonitor) && maps.Equal(a.PerType, b.PerType)
}
