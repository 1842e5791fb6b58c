// Command pipebench is the pipeline benchmark: it runs one workload of the
// monitor → segment store → unify → report pipeline for a fixed time, checks
// every iteration's output, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash pipebench/run.sh --workload capture --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of plain iterations. With
// --trace 1 it first runs plain iterations, then iterations with its own layer
// timers on and a CPU profile, and reports the per-layer metrics plus the
// timers' overhead (traced minus plain wall time). Workloads are described in
// BENCHMARK.json and README.md next to this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"bitswapmon/internal/engine"
)

// bench is one benchmark workload: setup generates its inputs (untimed)
// and returns the measured iteration. A run measures rounds of round
// iterations and reports the median over rounds of each round's mean.
type bench struct {
	name  string
	round int
	setup func(dir string, seed int64) (iteration, any, error)
}

// iteration runs the pipeline once under p as the j-th iteration of a round
// and returns its end-to-end metrics, or an error when an operation or an
// output check failed.
type iteration func(p *probe, j int) (map[string]float64, error)

// endToEnd lists the end-to-end metrics and their units, in output order.
var endToEnd = []metricName{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_speedup", "x"},
	{"entries_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"disk_bytes_per_entry", "B"},
}

// plainShare is the share of a traced run spent on plain iterations, the
// baseline the layer timers' overhead is measured against.
const plainShare = 0.4

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: capture, capture-sharded, analyze or replay")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured time")
	traced := fs.Int("trace", 0, "1 to run with layer timers and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "pipebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%s-%d", wl.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	iter, props, err := wl.setup(work, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench: setup:", err)
		return 1
	}
	// Drop the generator's data so peak RSS measures the iterations only.
	runtime.GC()
	debug.FreeOSMemory()
	rssReset := resetPeakRSS() == nil

	res := &result{Metrics: make(map[string]metric)}
	start := time.Now()
	deadline := start.Add(time.Duration(*seconds * float64(time.Second)))
	plainUntil := deadline
	if *traced == 1 {
		plainUntil = start.Add(time.Duration(plainShare * *seconds * float64(time.Second)))
	}
	plain := rounds(wl, iter, plainUntil, false, res, stderr)

	meta := map[string]any{
		"workload": wl.name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"host": hostInfo(), "input": props, "peak_rss_reset": rssReset,
	}
	var walls []float64
	for _, m := range plain {
		walls = append(walls, m["wall_s"])
	}
	meta["plain_round_wall_s"] = walls
	if *traced == 0 {
		meta["spread"] = spreads(plain)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: medianOf(plain, m.name), Unit: m.unit}
		}
	} else {
		layers, cpuShares, err := tracedRounds(wl, iter, deadline, work, res, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "pipebench:", err)
			return 1
		}
		plainWall, tracedWall := medianOf(plain, "wall_s"), medianOf(layers, "wall_s")
		out := medians(layers)
		out["timers.plain_wall_s"] = plainWall
		out["timers.traced_wall_s"] = tracedWall
		out["timers.overhead_s"] = tracedWall - plainWall
		if plainWall > 0 {
			out["timers.overhead_share"] = (tracedWall - plainWall) / plainWall
		}
		for k, v := range cpuShares {
			out[k] = v
		}
		meta["spread"] = spreads(layers)
		for _, m := range perLayerMetrics() {
			res.Metrics[m.name] = metric{Value: out[m.name], Unit: m.unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if err := printJSON(stdout, meta); err != nil {
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		return 1
	}
	return 0
}

// rounds runs rounds of wl.round iterations until the deadline and returns
// each complete round's mean metrics. A round that would end well past the
// deadline, judged by the previous round's length, is not started.
func rounds(wl bench, iter iteration, until time.Time, traced bool, res *result, stderr io.Writer) []map[string]float64 {
	var out []map[string]float64
	var last time.Duration
	for len(out) == 0 || time.Now().Add(last/2).Before(until) {
		t0 := time.Now()
		// Each round's peak resident memory is its own sample. A failed
		// reset is reported once, in the metadata line.
		_ = resetPeakRSS()
		var its []map[string]float64
		for j := 0; j < wl.round; j++ {
			p := newProbe(traced)
			if traced {
				engine.EnableMetrics(p.obs)
			}
			m, err := iter(p, j)
			if !res.record(stderr, err) {
				continue
			}
			if traced {
				for k, v := range p.layerMetrics() {
					m[k] = v
				}
			}
			its = append(its, m)
		}
		last = time.Since(t0)
		if len(its) == wl.round {
			m := means(its)
			if peak, err := peakRSSMB(); err == nil {
				m["peak_rss_mb"] = peak
			}
			out = append(out, m)
		} else if len(out) == 0 && res.Failed >= 3 {
			break
		}
	}
	return out
}

// tracedRounds runs rounds with the layer timers on until the deadline,
// under a CPU profile, and returns each round's metrics plus the profile's
// per-package self shares.
func tracedRounds(wl bench, iter iteration, deadline time.Time, work string, res *result, stderr io.Writer) ([]map[string]float64, map[string]float64, error) {
	profPath := filepath.Join(work, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	runs := rounds(wl, iter, deadline, true, res, stderr)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	shares, err := cpuSelfShares(profPath)
	return runs, shares, err
}

// means averages each metric over a round's iterations.
func means(its []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range its {
		for k, v := range m {
			out[k] += v / float64(len(its))
		}
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record counts one attempted iteration and reports whether it succeeded.
func (r *result) record(stderr io.Writer, err error) bool {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintln(stderr, "pipebench: iteration failed:", err)
		return false
	}
	return true
}

func printJSON(w io.Writer, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

func medianOf(runs []map[string]float64, name string) float64 {
	vals := make([]float64, 0, len(runs))
	for _, m := range runs {
		if v, ok := m[name]; ok {
			vals = append(vals, v)
		}
	}
	return quantile(vals, 0.5)
}

func medians(runs []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range runs {
		for k := range m {
			out[k] = 0
		}
	}
	for k := range out {
		out[k] = medianOf(runs, k)
	}
	return out
}

// quantile interpolates linearly between order statistics; 0 for no values.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// spreads summarises each metric across the run's iterations.
func spreads(runs []map[string]float64) map[string][5]float64 {
	out := make(map[string][5]float64)
	for k := range medians(runs) {
		var vals []float64
		for _, m := range runs {
			vals = append(vals, m[k])
		}
		out[k] = [5]float64{quantile(vals, 0), quantile(vals, 0.25), quantile(vals, 0.5), quantile(vals, 0.75), quantile(vals, 1)}
	}
	return out
}
