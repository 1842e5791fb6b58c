package main

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"bitswapmon/internal/bitswap"
	"bitswapmon/internal/cid"
	"bitswapmon/internal/geoip"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
	"bitswapmon/internal/workload"
)

// genConfig shapes the generated two-monitor trace that the analyze and
// replay workloads share. Requests are user-level wants; each becomes one or
// more entries: a want chain on one or both monitors (a second sighting
// within 5 s is an inter-monitor duplicate, Sec. IV-B), re-broadcast while
// unresolved (same-monitor duplicates), and usually a CANCEL.
type genConfig struct {
	Peers    int     // regular requesters; gateways are workload.DefaultOperators
	Items    int     // CID catalog size
	Zipf     float64 // popularity exponent over the catalog (> 1)
	ZipfV    float64 // offset: P(item k) is proportional to (ZipfV+k)^-Zipf
	Requests int     // user-level requests
	Span     time.Duration
}

// trafficMix is how requests turn into monitor entries. Its values are not
// chosen: they are what the capture workload's simulated worlds produce.
// TestGeneratorMatchesCapture measures them again from capture runs and from
// the generated trace and fails when either drifts from captureMix.
type trafficMix struct {
	BothFrac       float64       // requests seen by both monitors
	USFrac         float64       // requests seen by "us" only; the rest by "de" only
	SightingLag    time.Duration // median lag of the second sighting, drawn U(0, 2·lag)
	WantBlockFrac  float64       // want chains of type WANT_BLOCK; the rest WANT_HAVE
	UnresolvedFrac float64       // want chains re-broadcast until the requester gives up
	CancelFrac     float64       // resolved want chains followed by a CANCEL
	CancelLag      time.Duration // median lag of that CANCEL, drawn U(lag/2, 3·lag/2)
	GatewayShare   float64       // requests issued by gateway nodes
}

// captureMix is the median over the five worlds of a capture round at seed
// 101 (world seeds 505–509: captureSpec("serial"), 250 nodes, 2 h window),
// rounded. Re-derive it with
//
//	go test -run TestGeneratorMatchesCapture -v
//
// which logs each world's mix and their median.
var captureMix = trafficMix{
	BothFrac:       0.867,
	USFrac:         0.087,
	SightingLag:    36 * time.Millisecond,
	WantBlockFrac:  0.042,
	UnresolvedFrac: 0.075,
	CancelFrac:     0.955,
	CancelLag:      118 * time.Millisecond,
	GatewayShare:   0.770,
}

// The chain timing comes from the program's defaults: unresolved wants are
// re-broadcast every Bitswap idle-loop period (bitswap.DefaultConfig) until
// the requester gives up after workload.Config.UnresolvedCancelAfter (5 min
// by default), which ends the chain with a CANCEL.
var rebroadcastEvery = bitswap.DefaultConfig().RebroadcastInterval

const giveUpAfter = 5 * time.Minute

// unresolvedChain is the number of want entries of an unresolved chain.
func unresolvedChain() int { return int(giveUpAfter / rebroadcastEvery) }

// defaultGen is the input both trace workloads run on. The population,
// catalog size and Zipf popularity are the benchmark's choice of scale; the
// gateway fleets (workload.DefaultOperators), codec shares and traffic mix
// are the program's own.
var defaultGen = genConfig{
	Peers:    20000,
	Items:    200000,
	Zipf:     1.1,
	ZipfV:    100,
	Requests: 80000,
	Span:     6 * time.Hour,
}

// genStart is the first request time; it matches the simulator's epoch.
var genStart = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

// input is a generated trace written to one segment store per monitor, plus
// what the report options and output checks need to know about it.
type input struct {
	Dirs        []string       // segment stores, one per monitor
	PerMonitor  map[string]int // entries recorded per monitor
	Entries     int
	Bytes       int64 // sealed segment bytes
	GatewayIDs  map[simnet.NodeID]bool
	MegagateIDs map[simnet.NodeID]bool
	Props       inputProps
	Ref         reference
}

// inputProps are the input properties the benchmark reports with each run.
type inputProps struct {
	Entries          int     `json:"entries"`
	DistinctPeers    int     `json:"distinct_peers"`
	DistinctCIDs     int     `json:"distinct_cids"`
	Zipf             float64 `json:"zipf_exponent"`
	RebroadcastShare float64 `json:"rebroadcast_share"`
	InterMonShare    float64 `json:"inter_monitor_share"`
	DuplicateShare   float64 `json:"duplicate_share"`
	SpanSeconds      float64 `json:"span_s"`
}

// reference is the batch trace.Unify result the streaming path must match.
type reference struct {
	Summary trace.Summary
	Traffic report.Traffic
}

var monitorNames = []string{"de", "us"}

// generate draws the trace from seed, writes it under dir and computes the
// batch reference. Identical seeds give identical stores.
func generate(dir string, cfg genConfig, seed int64) (*input, error) {
	rng := rand.New(rand.NewSource(seed))
	geo := geoip.New()
	weights := workload.DefaultCountryWeights()
	in := &input{
		PerMonitor:  make(map[string]int),
		GatewayIDs:  make(map[simnet.NodeID]bool),
		MegagateIDs: make(map[simnet.NodeID]bool),
	}
	newPeer := func(name string) (peer, error) {
		addr, err := geo.Allocate(weights.Sample(rng))
		return peer{id: simnet.DeriveNodeID(fmt.Appendf(nil, "pipebench-%d-%s", seed, name)), addr: addr}, err
	}
	peers := make([]peer, cfg.Peers)
	for i := range peers {
		var err error
		if peers[i], err = newPeer(fmt.Sprint("peer-", i)); err != nil {
			return nil, err
		}
	}
	// Gateway requests go to an operator in proportion to its fleet's
	// request rate, then to one of its nodes.
	var gateways []peer
	var gatewayCum []float64
	var total float64
	for _, op := range workload.DefaultOperators() {
		for i := 0; i < op.Nodes; i++ {
			g, err := newPeer(fmt.Sprintf("gw-%s-%d", op.Name, i))
			if err != nil {
				return nil, err
			}
			in.GatewayIDs[g.id] = true
			if op.Name == "megagate" {
				in.MegagateIDs[g.id] = true
			}
			total += op.RequestsPerHour / float64(op.Nodes)
			gateways = append(gateways, g)
			gatewayCum = append(gatewayCum, total)
		}
	}
	items := make([]cid.CID, cfg.Items)
	codecs := codecSampler(workload.DefaultCodecMix())
	var buf [16]byte
	for i := range items {
		binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
		binary.LittleEndian.PutUint64(buf[8:], uint64(i))
		items[i] = cid.Sum(codecs(rng.Float64()), buf[:])
	}
	zipf := rand.NewZipf(rng, cfg.Zipf, cfg.ZipfV, uint64(cfg.Items-1))

	mix := captureMix
	byMon := make(map[string][]trace.Entry, len(monitorNames))
	emit := func(mon string, at time.Time, p peer, typ wire.EntryType, c cid.CID) {
		byMon[mon] = append(byMon[mon], trace.Entry{Timestamp: at, Monitor: mon, NodeID: p.id, Addr: p.addr, Type: typ, CID: c})
	}
	uniform := func(lo, hi time.Duration) time.Duration { return lo + time.Duration(rng.Float64()*float64(hi-lo)) }
	for r := 0; r < cfg.Requests; r++ {
		at := genStart.Add(time.Duration(rng.Int63n(int64(cfg.Span))))
		var p peer
		if len(gateways) > 0 && rng.Float64() < mix.GatewayShare {
			p = gateways[sort.SearchFloat64s(gatewayCum, rng.Float64()*total)]
		} else {
			p = peers[rng.Intn(len(peers))]
		}
		c := items[zipf.Uint64()]
		typ := wire.WantHave
		if rng.Float64() < mix.WantBlockFrac {
			typ = wire.WantBlock
		}
		// Sightings: which monitors, and each one's lag.
		var mons []string
		var lags []time.Duration
		switch u := rng.Float64(); {
		case u < mix.BothFrac:
			mons = monitorNames
			lags = []time.Duration{0, uniform(0, 2*mix.SightingLag)}
			if rng.Intn(2) == 0 {
				lags[0], lags[1] = lags[1], lags[0]
			}
		case u < mix.BothFrac+mix.USFrac:
			mons, lags = []string{"us"}, []time.Duration{0}
		default:
			mons, lags = []string{"de"}, []time.Duration{0}
		}
		chain, cancelAfter := 1, time.Duration(-1)
		if rng.Float64() < mix.UnresolvedFrac {
			chain, cancelAfter = unresolvedChain(), giveUpAfter
		} else if rng.Float64() < mix.CancelFrac {
			cancelAfter = uniform(mix.CancelLag/2, 3*mix.CancelLag/2)
		}
		for i, mon := range mons {
			t := at.Add(lags[i])
			for k := 0; k < chain; k++ {
				emit(mon, t.Add(time.Duration(k)*rebroadcastEvery), p, typ, c)
			}
			if cancelAfter >= 0 {
				emit(mon, t.Add(cancelAfter), p, wire.Cancel, c)
			}
		}
	}

	traces := make([][]trace.Entry, 0, len(monitorNames))
	for _, mon := range monitorNames {
		entries := byMon[mon]
		trace.Sort(entries)
		path := filepath.Join(dir, "mon-"+mon+".segments")
		bytes, err := writeStore(path, entries)
		if err != nil {
			return nil, err
		}
		in.Bytes += bytes
		in.Dirs = append(in.Dirs, path)
		in.PerMonitor[mon] = len(entries)
		in.Entries += len(entries)
		traces = append(traces, entries)
	}

	ref, err := batchReference(trace.Unify(traces...), in.GatewayIDs)
	if err != nil {
		return nil, err
	}
	in.Ref = *ref
	s := ref.Summary
	in.Props = inputProps{
		Entries:          s.Entries,
		DistinctPeers:    s.UniquePeers,
		DistinctCIDs:     s.UniqueCIDs,
		Zipf:             cfg.Zipf,
		RebroadcastShare: float64(s.Rebroadcasts) / float64(s.Entries),
		InterMonShare:    float64(s.InterMonDups) / float64(s.Entries),
		DuplicateShare:   1 - float64(ref.Traffic.DedupEntries)/float64(s.Entries),
		SpanSeconds:      s.Last.Sub(s.First).Seconds(),
	}
	return in, nil
}

type peer struct {
	id   simnet.NodeID
	addr string
}

// codecSampler maps a uniform draw to a codec with the given shares, in
// codec order as workload.BuildCatalog draws them.
func codecSampler(mix map[cid.Codec]float64) func(u float64) cid.Codec {
	codecs := slices.Sorted(maps.Keys(mix))
	return func(u float64) cid.Codec {
		acc := 0.0
		for _, c := range codecs {
			acc += mix[c]
			if u < acc {
				return c
			}
		}
		return cid.DagProtobuf
	}
}

// writeStore writes entries into a new segment store and returns the sealed
// segments' size.
func writeStore(dir string, entries []trace.Entry) (int64, error) {
	store, err := ingest.OpenSegmentStore(dir, ingest.SegmentOptions{})
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if err := store.Write(e); err != nil {
			store.Close()
			return 0, err
		}
	}
	if err := store.Close(); err != nil {
		return 0, err
	}
	return storeBytes([]*ingest.SegmentStore{store})
}

// batchReference runs the summary and traffic reports over a batch-unified
// trace: the oracle the streaming unifier's output is checked against.
func batchReference(unified []trace.Entry, gateways map[simnet.NodeID]bool) (*reference, error) {
	drv := report.NewDriver(true)
	if err := drv.AddByName([]string{"summary", "traffic"}, report.Options{GatewayIDs: gateways}); err != nil {
		return nil, err
	}
	if err := drv.Run(ingest.SliceSource(unified)); err != nil {
		return nil, err
	}
	res, err := drv.Finalize()
	if err != nil {
		return nil, err
	}
	return &reference{
		Summary: res.Get("summary").(*report.SummaryResult).Summary,
		Traffic: *res.Get("traffic").(*report.Traffic),
	}, nil
}
