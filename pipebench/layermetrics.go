package main

import (
	"strings"

	"bitswapmon/internal/report"
)

type metricName struct{ name, unit string }

// cpuPackages are the packages a CPU profile's leaf frames are folded into:
// the program's own packages, the benchmark, the Go runtime, the rest of the
// standard library, and everything else.
var cpuPackages = []string{
	"simnet", "engine", "bitswap", "dht", "node", "workload", "gateway", "monitor",
	"attacks", "ingest", "trace", "report", "popularity", "replay", "otrace",
	"wire", "cid", "pipebench", "runtime", "std", "other",
}

// perLayerMetrics lists every per-layer metric a traced run reports, in
// BENCHMARK.json order. Layers that do not run in a workload report 0.
func perLayerMetrics() []metricName {
	ms := []metricName{
		{"engine.run_s", "s"}, {"engine.self_s", "s"},
		{"engine.delivered", "count"}, {"engine.dropped", "count"},
		{"engine.sends", "count"}, {"engine.timers", "count"},
		{"engine.windows", "count"}, {"engine.cross_shard_sends", "count"},
		{"engine.barrier_wait_s", "s"},
		{"bitswap.handle_s", "s"}, {"bitswap.msgs", "count"}, {"bitswap.timer_s", "s"},
		{"dht.handle_s", "s"}, {"dht.msgs", "count"}, {"dht.timer_s", "s"},
		{"workload.build_s", "s"}, {"workload.timer_s", "s"},
		{"monitor.handle_s", "s"}, {"monitor.entries", "count"}, {"monitor.sink_s", "s"},
		{"other.handle_s", "s"}, {"other.timer_s", "s"},
		{"attacks.probe_s", "s"},
		{"ingest.open_s", "s"}, {"ingest.write_s", "s"}, {"ingest.entries_written", "count"},
		{"ingest.seal_s", "s"}, {"ingest.segments", "count"}, {"ingest.bytes", "B"},
		{"ingest.stats_s", "s"}, {"ingest.read_s", "s"}, {"ingest.entries_read", "count"},
		{"unify.self_s", "s"}, {"unify.entries", "count"},
		{"unify.rebroadcast", "count"}, {"unify.inter_monitor", "count"},
		{"report.observed", "count"},
	}
	for _, n := range report.Names() {
		ms = append(ms, metricName{"report." + n + ".observe_s", "s"}, metricName{"report." + n + ".finalize_s", "s"})
	}
	ms = append(ms,
		metricName{"replay.prepare_s", "s"}, metricName{"replay.drive_s", "s"},
		metricName{"replay.events", "count"}, metricName{"replay.requesters", "count"},
		metricName{"otrace.spans", "count"}, metricName{"otrace.drops", "count"},
		metricName{"otrace.kept_ratio", "ratio"}, metricName{"otrace.export_s", "s"},
	)
	for _, ph := range phases {
		ms = append(ms,
			metricName{"runtime." + ph + ".alloc_mb", "MB"},
			metricName{"runtime." + ph + ".gc_cycles", "count"},
			metricName{"runtime." + ph + ".gc_pause_s", "s"})
	}
	for _, pkg := range cpuPackages {
		ms = append(ms, metricName{"cpu." + pkg + ".self_share", "ratio"})
	}
	return append(ms,
		metricName{"timers.plain_wall_s", "s"}, metricName{"timers.traced_wall_s", "s"},
		metricName{"timers.overhead_s", "s"}, metricName{"timers.overhead_share", "ratio"})
}

// layerMetrics reads one traced iteration's layer timers and counters.
func (p *probe) layerMetrics() map[string]float64 {
	m := map[string]float64{
		"engine.delivered":    float64(p.delivered),
		"engine.dropped":      float64(p.dropped),
		"workload.build_s":    p.build.seconds(),
		"monitor.entries":     float64(p.captured()),
		"monitor.sink_s":      p.sink.seconds(),
		"attacks.probe_s":     p.probeRun.seconds(),
		"ingest.open_s":       p.open.seconds(),
		"ingest.write_s":      p.storeWrite.seconds(),
		"ingest.seal_s":       p.seal.seconds(),
		"ingest.stats_s":      p.statsWrite.seconds(),
		"ingest.read_s":       p.read.seconds(),
		"ingest.entries_read": p.read.count(),
		"unify.self_s":        p.unify.seconds() - p.read.seconds(),
		"unify.entries":       float64(p.unifyOut),
		"unify.rebroadcast":   float64(p.rebroadcast),
		"unify.inter_monitor": float64(p.interMonitor),
		"replay.prepare_s":    p.prepare.seconds(),
		"replay.drive_s":      p.drive.seconds(),
		"replay.events":       float64(p.replayEvents),
		"replay.requesters":   float64(p.replayRequesters),
		"otrace.export_s":     p.export.seconds(),
	}
	var written, segments float64
	for _, s := range p.stores {
		t := s.Totals()
		written += float64(t.Entries)
		segments += float64(len(s.Segments()))
	}
	m["ingest.entries_written"] = written
	m["ingest.segments"] = segments
	if bytes, err := storeBytes(p.stores); err == nil {
		m["ingest.bytes"] = float64(bytes)
	}
	var observed float64
	for name, rm := range p.reports {
		m["report."+name+".observe_s"] = rm[0].seconds()
		m["report."+name+".finalize_s"] = rm[1].seconds()
		observed += rm[0].count()
	}
	m["report.observed"] = observed
	if tr := p.tracer; tr != nil {
		spans, drops := float64(len(tr.Spans())), float64(tr.Dropped())
		m["otrace.spans"] = spans
		m["otrace.drops"] = drops
		if spans+drops > 0 {
			m["otrace.kept_ratio"] = spans / (spans + drops)
		}
	}
	for ph, v := range p.phase {
		m["runtime."+ph+".alloc_mb"] = v[0]
		m["runtime."+ph+".gc_cycles"] = v[1]
		m["runtime."+ph+".gc_pause_s"] = v[2]
	}
	if c := p.eng; c != nil {
		m["engine.run_s"] = c.run.seconds()
		m["engine.sends"] = float64(c.sends.Load())
		m["engine.timers"] = float64(c.timers.Load())
		var callbacks float64
		for l := layer(0); l < numLayers; l++ {
			name := layerNames[l]
			m[name+".handle_s"] = c.handle[l].seconds()
			m[name+".timer_s"] = c.timerCB[l].seconds()
			callbacks += c.handle[l].seconds() + c.timerCB[l].seconds()
		}
		m["bitswap.msgs"] = c.handle[layerBitswap].count()
		m["dht.msgs"] = c.handle[layerDHT].count()
		snap := p.obs.Snapshot()
		var barrier float64
		for k, v := range snap {
			if strings.HasPrefix(k, "engine_shard_barrier_wait_seconds_sum") {
				barrier += v
			}
		}
		m["engine.windows"] = snap["engine_windows_total"]
		m["engine.cross_shard_sends"] = snap["engine_cross_shard_sends_total"]
		m["engine.barrier_wait_s"] = barrier
		// Worker-seconds not spent in handlers or timer callbacks: event
		// queueing and delivery, plus barrier waits under the sharded engine.
		m["engine.self_s"] = c.run.seconds()*float64(p.shards) - callbacks
	}
	return m
}
