package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"bitswapmon/internal/engine"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/sweep"
	"bitswapmon/internal/trace"
)

// smallCaptureSpec is captureSpec shrunk to test size.
func smallCaptureSpec() sweep.ScenarioSpec {
	spec := captureSpec("serial")
	spec.Nodes = 60
	spec.CatalogItems = 400
	spec.Warmup = sweep.D(30 * time.Minute)
	spec.Window = sweep.D(time.Hour)
	return spec
}

// smallGen is defaultGen shrunk to test size.
var smallGen = genConfig{Peers: 300, Items: 3000, Zipf: 1.1, ZipfV: 100, Requests: 3000, Span: time.Hour}

// readSummary loads a summary.json as sweep does, minus wall-clock time.
func readSummary(t *testing.T, path string) *sweep.RunSummary {
	t.Helper()
	s, err := sweep.ReadSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	s.ElapsedMS = 0
	return s
}

// TestComposedMatchesExecuteRun is the drift guard: the benchmark's composed
// capture and replay pipelines must produce the RunSummary sweep.ExecuteRun
// produces for the same spec and seed.
func TestComposedMatchesExecuteRun(t *testing.T) {
	dir := t.TempDir()
	const seed = 7

	spec := smallCaptureSpec()
	if _, err := sweep.ExecuteRun(filepath.Join(dir, "exec-capture"), sweep.Run{ID: "capture", Spec: spec, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	bench := t.TempDir()
	if _, err := runCapture(bench, spec, seed, newProbe(false)); err != nil {
		t.Fatal(err)
	}
	want := readSummary(t, filepath.Join(dir, "exec-capture", "summary.json"))
	got := readSummary(t, filepath.Join(bench, "summary.json"))
	if want.Entries == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("capture: composed summary\n%+v\ndiffers from ExecuteRun\n%+v", got, want)
	}

	in, err := generate(filepath.Join(dir, "input"), smallGen, seed)
	if err != nil {
		t.Fatal(err)
	}
	rspec := replaySpec(in)
	if _, err := sweep.ExecuteRun(filepath.Join(dir, "exec-replay"), sweep.Run{ID: "replay", Spec: rspec, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	bench = t.TempDir()
	if _, err := runReplay(bench, rspec, seed, newProbe(false)); err != nil {
		t.Fatal(err)
	}
	want = readSummary(t, filepath.Join(dir, "exec-replay", "summary.json"))
	got = readSummary(t, filepath.Join(bench, "summary.json"))
	if want.ReplayEvents == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("replay: composed summary\n%+v\ndiffers from ExecuteRun\n%+v", got, want)
	}
}

// TestLayerTimersTransparent: the traced run builds the same engine behind
// forwarding wrappers, so its summary digest equals the plain run's.
func TestLayerTimersTransparent(t *testing.T) {
	spec := smallCaptureSpec()
	plain, err := runCapture(t.TempDir(), spec, 3, newProbe(false))
	if err != nil {
		t.Fatal(err)
	}
	p := newProbe(true)
	traced, err := runCapture(t.TempDir(), spec, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Digest != traced.Digest {
		t.Errorf("traced digest %s differs from plain %s", traced.Digest, plain.Digest)
	}
	m := p.layerMetrics()
	// Sends not yet delivered or dropped are still in flight at the end.
	if m["engine.run_s"] <= 0 || m["bitswap.msgs"] <= 0 || m["dht.msgs"] <= 0 ||
		m["engine.delivered"] <= 0 || m["engine.delivered"]+m["engine.dropped"] > m["engine.sends"] {
		t.Errorf("layer metrics not filled: run %v, bitswap msgs %v, dht msgs %v, sends %v, delivered %v, dropped %v",
			m["engine.run_s"], m["bitswap.msgs"], m["dht.msgs"], m["engine.sends"], m["engine.delivered"], m["engine.dropped"])
	}
}

// TestLayerTimersSharded drives the timers from the sharded engine's worker
// goroutines (run it with -race) and reads the engine's obs counters.
func TestLayerTimersSharded(t *testing.T) {
	spec := smallCaptureSpec()
	spec.Engine, spec.Shards = "sharded", captureShards
	p := newProbe(true)
	engine.EnableMetrics(p.obs)
	r, err := runCapture(t.TempDir(), spec, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCapture(r); err != nil {
		t.Fatal(err)
	}
	m := p.layerMetrics()
	if p.shards != captureShards || m["engine.windows"] <= 0 || m["bitswap.msgs"] <= 0 {
		t.Errorf("shards %d, windows %v, bitswap msgs %v", p.shards, m["engine.windows"], m["bitswap.msgs"])
	}
}

// dropNth loses the nth entry written through it.
type dropNth struct {
	dst  ingest.Sink
	n, i int
}

func (d *dropNth) Write(e trace.Entry) error {
	d.i++
	if d.i == d.n {
		return nil
	}
	return d.dst.Write(e)
}

// TestChecksCatchLostEntry: a sink that silently drops one entry must make
// the capture and replay output checks fail.
func TestChecksCatchLostEntry(t *testing.T) {
	dir := t.TempDir()
	lossy := func() *probe {
		p := newProbe(false)
		p.wrapSink = func(s ingest.Sink) ingest.Sink { return &dropNth{dst: s, n: 5} }
		return p
	}

	spec := smallCaptureSpec()
	r, err := runCapture(t.TempDir(), spec, 3, newProbe(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCapture(r); err != nil {
		t.Fatalf("intact capture fails its check: %v", err)
	}
	if r, err = runCapture(t.TempDir(), spec, 3, lossy()); err != nil {
		t.Fatal(err)
	}
	if err := checkCapture(r); err == nil {
		t.Error("capture check passed with an entry lost")
	}

	in, err := generate(filepath.Join(dir, "input"), smallGen, 3)
	if err != nil {
		t.Fatal(err)
	}
	rspec := replaySpec(in)
	if r, err = runReplay(t.TempDir(), rspec, 3, newProbe(false)); err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(in, r); err != nil {
		t.Fatalf("intact replay fails its check: %v", err)
	}
	if r, err = runReplay(t.TempDir(), rspec, 3, lossy()); err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(in, r); err == nil {
		t.Error("replay check passed with an entry lost")
	}
}

// TestAnalyzeMatchesReference runs the analyze pass over a small input and
// checks it against the batch reference; a corrupted reference must fail.
func TestAnalyzeMatchesReference(t *testing.T) {
	in, err := generate(t.TempDir(), smallGen, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAnalyze(in, newProbe(true)); err != nil {
		t.Fatal(err)
	}
	in.Ref.Summary.Rebroadcasts++
	if _, err := runAnalyze(in, newProbe(false)); err == nil {
		t.Error("analyze check passed against a wrong reference")
	}
}

// TestGeneratorDeterministic: the same seed gives the same input.
func TestGeneratorDeterministic(t *testing.T) {
	a, err := generate(t.TempDir(), smallGen, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(t.TempDir(), smallGen, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Props != b.Props || !summariesEqual(a.Ref.Summary, b.Ref.Summary) {
		t.Errorf("same seed, different inputs: %+v vs %+v", a.Props, b.Props)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what the program
// prints: the same workloads and the same metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, b := range benches {
		want = append(want, b.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	var e2e []metricName
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricName{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, endToEnd)
	}
	var layers []metricName
	for _, m := range bj.PerLayer {
		layers = append(layers, metricName{m.Name, m.Unit})
	}
	if got, want := layers, perLayerMetrics(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", got, want)
	}
}
