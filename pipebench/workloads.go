package main

import (
	"fmt"
	"maps"
	"path/filepath"
	"time"

	"bitswapmon/internal/report"
	"bitswapmon/internal/sweep"
)

// Capture sizes. How much work one world holds varies with its seed by
// about 7% (interquartile range over seeds, wall time), so a capture round
// simulates captureWorlds worlds seeded from the run seed and reports their
// mean; nodes and window keep one serial world near two seconds on a 2-CPU
// host.
const (
	captureNodes  = 250
	captureWindow = 2 * time.Hour
	captureShards = 2
	captureWorlds = 5
)

// Replay settings: a fixed time warp and the program's tracer at 0.25.
const (
	replayWarp   = 60
	replayNodes  = 1024
	replaySample = 0.25
)

var benches = []bench{
	{name: "capture", round: captureWorlds, setup: captureSetup("serial")},
	{name: "capture-sharded", round: captureWorlds, setup: captureSetup("sharded")},
	{name: "analyze", round: 1, setup: analyzeSetup},
	{name: "replay", round: 1, setup: replaySetup},
}

func workloadByName(name string) (bench, bool) {
	for _, w := range benches {
		if w.name == name {
			return w, true
		}
	}
	return bench{}, false
}

// captureSpec is sweep.DefaultSpec at benchmark size with every report that
// works without the program's tracer.
func captureSpec(engineName string) sweep.ScenarioSpec {
	spec := sweep.DefaultSpec()
	spec.Nodes = captureNodes
	spec.Window = sweep.D(captureWindow)
	spec.Engine = engineName
	if engineName == "sharded" {
		spec.Shards = captureShards
	}
	for _, n := range report.Names() {
		if n != "summary" && n != "traffic" && n != "latency_breakdown" {
			spec.Reports = append(spec.Reports, n)
		}
	}
	return spec
}

func captureSetup(engineName string) func(string, int64) (iteration, any, error) {
	return func(dir string, seed int64) (iteration, any, error) {
		spec := captureSpec(engineName)
		digests := make([]string, captureWorlds)
		mismatches := 0
		run := filepath.Join(dir, "run")
		iter := func(p *probe, j int) (map[string]float64, error) {
			if err := resetDir(run); err != nil {
				return nil, err
			}
			start := time.Now()
			world := worldSeed(seed, j)
			r, err := runCapture(run, spec, world, p)
			if err != nil {
				return nil, err
			}
			if err := checkCapture(r); err != nil {
				return nil, err
			}
			// The serial engine is deterministic per seed; the sharded one
			// is not yet, so its digest is only recorded.
			switch {
			case digests[j] == "":
				digests[j] = r.Digest
			case r.Digest == digests[j]:
			case engineName == "serial":
				return nil, fmt.Errorf("capture: world seed %d: summary digest %s differs from the first round's %s", world, r.Digest, digests[j])
			default:
				mismatches++
			}
			wall := time.Since(start).Seconds()
			return map[string]float64{
				"wall_s":               wall,
				"setup_s":              r.Setup.Seconds(),
				"sim_speedup":          r.SimVirtual.Seconds() / r.SimHost.Seconds(),
				"entries_per_s":        float64(r.Captured) / wall,
				"disk_bytes_per_entry": float64(r.Bytes) / float64(r.Sealed),
			}, nil
		}
		seeds := make([]int64, captureWorlds)
		for j := range seeds {
			seeds[j] = worldSeed(seed, j)
		}
		props := map[string]any{"spec": spec, "world_seeds": seeds, "digests": digests, "digest_mismatches": &mismatches}
		return iter, props, nil
	}
}

// worldSeed is the seed of a capture round's j-th world.
func worldSeed(seed int64, j int) int64 { return seed*captureWorlds + int64(j) }

// checkCapture accounts for every entry: captured = sealed = read back by
// Query = summarized.
func checkCapture(r *runResult) error {
	if r.Captured == 0 || r.Captured != r.Sealed || r.Sealed != r.ReadBack || r.ReadBack != int64(r.Summary.Entries) {
		return fmt.Errorf("capture: entries captured %d, sealed %d, read back %d, summarized %d",
			r.Captured, r.Sealed, r.ReadBack, r.Summary.Entries)
	}
	return nil
}

func analyzeSetup(dir string, seed int64) (iteration, any, error) {
	in, err := generate(filepath.Join(dir, "input"), defaultGen, seed)
	if err != nil {
		return nil, nil, err
	}
	iter := func(p *probe, _ int) (map[string]float64, error) {
		r, err := runAnalyze(in, p)
		if err != nil {
			return nil, err
		}
		wall := r.Wall.Seconds()
		return map[string]float64{
			"wall_s":               wall,
			"setup_s":              r.Setup.Seconds(),
			"sim_speedup":          in.Props.SpanSeconds / wall,
			"entries_per_s":        float64(in.Entries) / wall,
			"disk_bytes_per_entry": float64(in.Bytes) / float64(in.Entries),
		}, nil
	}
	return iter, in.Props, nil
}

// replaySpec replays the generated input directly through sweep's replay
// path, tracing a quarter of the requests.
func replaySpec(in *input) sweep.ScenarioSpec {
	return sweep.ScenarioSpec{
		Version: sweep.SpecVersion,
		Name:    "pipebench-replay",
		WorkloadSource: &sweep.WorkloadSourceSpec{
			Mode:        "replay",
			Inputs:      in.Dirs,
			TimeWarp:    replayWarp,
			ReplayNodes: replayNodes,
		},
		Reports:     []string{"latency_breakdown"},
		Trace:       true,
		TraceSample: replaySample,
	}
}

func replaySetup(dir string, seed int64) (iteration, any, error) {
	in, err := generate(filepath.Join(dir, "input"), defaultGen, seed)
	if err != nil {
		return nil, nil, err
	}
	spec := replaySpec(in)
	run := filepath.Join(dir, "run")
	iter := func(p *probe, _ int) (map[string]float64, error) {
		if err := resetDir(run); err != nil {
			return nil, err
		}
		start := time.Now()
		r, err := runReplay(run, spec, seed, p)
		if err != nil {
			return nil, err
		}
		if err := checkReplay(in, r); err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		return map[string]float64{
			"wall_s":               wall,
			"setup_s":              r.Setup.Seconds(),
			"sim_speedup":          r.SimVirtual.Seconds() / r.SimHost.Seconds(),
			"entries_per_s":        float64(in.Entries) / wall,
			"disk_bytes_per_entry": float64(r.Bytes) / float64(r.Sealed),
		}, nil
	}
	return iter, in.Props, nil
}

// checkReplay: every input entry replays once, and each monitor re-captures
// exactly the entries it recorded.
func checkReplay(in *input, r *runResult) error {
	if r.Summary.ReplayEvents != in.Entries {
		return fmt.Errorf("replay: %d events replayed, input has %d entries", r.Summary.ReplayEvents, in.Entries)
	}
	if !maps.Equal(r.PerMon, in.PerMonitor) {
		return fmt.Errorf("replay: re-captured per monitor %v, recorded %v", r.PerMon, in.PerMonitor)
	}
	return checkCapture(r)
}
