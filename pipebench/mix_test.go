package main

import (
	"math"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// measuredMix is a trafficMix read off a two-monitor trace, plus what the
// generator takes from the program's defaults.
type measuredMix struct {
	trafficMix
	UnresolvedChain int     // most common length of chains longer than one entry
	CancelsPerChain float64 // CANCEL entries per want chain, unresolved ones included
}

// measureMix reads the request mix off per-monitor traces in time order. A
// want chain is one monitor's run of entries with the same peer, type and
// CID, each within trace.RebroadcastWindow of the previous. A request is a
// chain start, paired with the other monitor's start of the same chain key
// when that lies within trace.InterMonitorWindow. A CANCEL belongs to the
// latest chain of its peer and CID on the same monitor.
func measureMix(traces [][]trace.Entry, gateways map[simnet.NodeID]bool) measuredMix {
	type chainKey struct {
		node simnet.NodeID
		typ  wire.EntryType
		c    string
	}
	type cancelKey struct {
		node simnet.NodeID
		c    string
	}
	type chain struct {
		mon         string
		first, last time.Time
		n           int
		cancelLag   time.Duration // -1 without a CANCEL
	}
	byKey := make(map[chainKey][]*chain)
	var chains []*chain
	for _, tr := range traces {
		open := make(map[chainKey]*chain)
		latest := make(map[cancelKey]*chain)
		for _, e := range tr {
			if e.Type == wire.Cancel {
				if ch := latest[cancelKey{e.NodeID, e.CID.Key()}]; ch != nil && ch.cancelLag < 0 {
					ch.cancelLag = e.Timestamp.Sub(ch.last)
				}
				continue
			}
			k := chainKey{e.NodeID, e.Type, e.CID.Key()}
			if ch := open[k]; ch != nil && e.Timestamp.Sub(ch.last) <= trace.RebroadcastWindow {
				ch.last = e.Timestamp
				ch.n++
				continue
			}
			ch := &chain{mon: e.Monitor, first: e.Timestamp, last: e.Timestamp, n: 1, cancelLag: -1}
			chains = append(chains, ch)
			byKey[k] = append(byKey[k], ch)
			open[k] = ch
			latest[cancelKey{e.NodeID, e.CID.Key()}] = ch
		}
	}

	var m measuredMix
	lengths := make(map[int]int)
	var wantBlock, unresolved, resolved, resolvedCancelled, cancels int
	var cancelLags []float64
	for k, chs := range byKey {
		for _, ch := range chs {
			lengths[ch.n]++
			if k.typ == wire.WantBlock {
				wantBlock++
			}
			if ch.cancelLag >= 0 {
				cancels++
			}
			if ch.n > 1 {
				unresolved++
				continue
			}
			resolved++
			if ch.cancelLag >= 0 {
				resolvedCancelled++
				cancelLags = append(cancelLags, ch.cancelLag.Seconds())
			}
		}
	}

	var requests, both, us, gw int
	var sightingLags []float64
	for k, chs := range byKey {
		sort.Slice(chs, func(i, j int) bool { return chs[i].first.Before(chs[j].first) })
		for i := 0; i < len(chs); i++ {
			requests++
			if gateways[k.node] {
				gw++
			}
			if i+1 < len(chs) && chs[i+1].mon != chs[i].mon && chs[i+1].first.Sub(chs[i].first) <= trace.InterMonitorWindow {
				both++
				sightingLags = append(sightingLags, chs[i+1].first.Sub(chs[i].first).Seconds())
				i++
				continue
			}
			if chs[i].mon == "us" {
				us++
			}
		}
	}

	n := float64(len(chains))
	m.BothFrac = float64(both) / float64(requests)
	m.USFrac = float64(us) / float64(requests)
	m.SightingLag = seconds(median(sightingLags))
	m.WantBlockFrac = float64(wantBlock) / n
	m.UnresolvedFrac = float64(unresolved) / n
	m.CancelFrac = float64(resolvedCancelled) / float64(resolved)
	m.CancelLag = seconds(median(cancelLags))
	m.GatewayShare = float64(gw) / float64(requests)
	m.CancelsPerChain = float64(cancels) / n
	for l, c := range lengths {
		if l > 1 && (c > lengths[m.UnresolvedChain] || c == lengths[m.UnresolvedChain] && l < m.UnresolvedChain) {
			m.UnresolvedChain = l
		}
	}
	return m
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// readStores reads every entry of the segment stores under dir, one trace
// per monitor.
func readStores(t *testing.T, dirs ...string) [][]trace.Entry {
	t.Helper()
	var out [][]trace.Entry
	for _, dir := range dirs {
		store, err := ingest.OpenSegmentStore(dir, ingest.SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		it, err := store.Query(time.Time{}, time.Time{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var entries []trace.Entry
		for {
			e, err := it.Read()
			if err != nil {
				break
			}
			entries = append(entries, e)
		}
		it.Close()
		store.Close()
		out = append(out, entries)
	}
	return out
}

// checkMix compares a measured mix with captureMix: shares within an
// absolute tolerance, lags within a relative one, and the chain length and
// cancels per chain the program's defaults give.
func checkMix(t *testing.T, what string, m measuredMix) {
	t.Helper()
	want := captureMix
	shares := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"BothFrac", m.BothFrac, want.BothFrac, 0.05},
		{"USFrac", m.USFrac, want.USFrac, 0.04},
		{"WantBlockFrac", m.WantBlockFrac, want.WantBlockFrac, 0.02},
		{"UnresolvedFrac", m.UnresolvedFrac, want.UnresolvedFrac, 0.035},
		{"CancelFrac", m.CancelFrac, want.CancelFrac, 0.04},
		{"GatewayShare", m.GatewayShare, want.GatewayShare, 0.08},
		{"SightingLag/s", m.SightingLag.Seconds(), want.SightingLag.Seconds(), 0.5 * want.SightingLag.Seconds()},
		{"CancelLag/s", m.CancelLag.Seconds(), want.CancelLag.Seconds(), 0.5 * want.CancelLag.Seconds()},
		{"CancelsPerChain", m.CancelsPerChain,
			want.UnresolvedFrac + (1-want.UnresolvedFrac)*want.CancelFrac, 0.05},
	}
	for _, s := range shares {
		if math.IsNaN(s.got) || math.Abs(s.got-s.want) > s.tol {
			t.Errorf("%s: %s = %.4f, captureMix gives %.4f (± %.4f)", what, s.name, s.got, s.want, s.tol)
		}
	}
	if m.UnresolvedChain != unresolvedChain() {
		t.Errorf("%s: unresolved want chains have %d entries, the generator's have %d", what, m.UnresolvedChain, unresolvedChain())
	}
}

// TestGeneratorMatchesCapture keeps the generated trace honest: captureMix
// must still be what the capture workload's worlds produce, and the
// generator must reproduce it.
func TestGeneratorMatchesCapture(t *testing.T) {
	dir := t.TempDir()
	spec := captureSpec("serial")
	var worlds []measuredMix
	for j := 0; j < captureWorlds; j++ {
		seed := worldSeed(101, j)
		run := filepath.Join(dir, "run")
		if err := resetDir(run); err != nil {
			t.Fatal(err)
		}
		r, err := runCapture(run, spec, seed, newProbe(false))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCapture(r); err != nil {
			t.Fatal(err)
		}
		traces := readStores(t, filepath.Join(run, "mon-us.segments"), filepath.Join(run, "mon-de.segments"))
		m := measureMix(traces, r.GatewayIDs)
		t.Logf("capture world %d: %+v", seed, m)
		worlds = append(worlds, m)
	}
	// The median over worlds of each field.
	med := func(f func(measuredMix) float64) float64 {
		var v []float64
		for _, m := range worlds {
			v = append(v, f(m))
		}
		return median(v)
	}
	capture := measuredMix{
		trafficMix: trafficMix{
			BothFrac:       med(func(m measuredMix) float64 { return m.BothFrac }),
			USFrac:         med(func(m measuredMix) float64 { return m.USFrac }),
			SightingLag:    seconds(med(func(m measuredMix) float64 { return m.SightingLag.Seconds() })),
			WantBlockFrac:  med(func(m measuredMix) float64 { return m.WantBlockFrac }),
			UnresolvedFrac: med(func(m measuredMix) float64 { return m.UnresolvedFrac }),
			CancelFrac:     med(func(m measuredMix) float64 { return m.CancelFrac }),
			CancelLag:      seconds(med(func(m measuredMix) float64 { return m.CancelLag.Seconds() })),
			GatewayShare:   med(func(m measuredMix) float64 { return m.GatewayShare }),
		},
		UnresolvedChain: int(med(func(m measuredMix) float64 { return float64(m.UnresolvedChain) })),
		CancelsPerChain: med(func(m measuredMix) float64 { return m.CancelsPerChain }),
	}
	t.Logf("capture median: %+v", capture)
	checkMix(t, "capture", capture)

	gen := smallGen
	gen.Requests = 20000
	in, err := generate(filepath.Join(dir, "input"), gen, 1)
	if err != nil {
		t.Fatal(err)
	}
	generated := measureMix(readStores(t, in.Dirs...), in.GatewayIDs)
	t.Logf("generated: %+v", generated)
	checkMix(t, "generated", generated)
}
