package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"prism/internal/bench"
)

// runSim runs sim-apps. Untraced: rounds of the serial figure calls,
// each in a fresh process that first times the set-up pass, for the
// run's seconds (at least simMinRounds). Traced: the set-up pass, one
// plain round (counters, per-figure times) and one round under the CPU
// profiler with a span per figure call.
func runSim(o options) (runResult, error) {
	cfg := simConfig(o.seed)
	res := runResult{metrics: newMetricSet(endToEnd)}
	res.notes = append(res.notes, fmt.Sprintf("figure seed %d (run seed %d), client ladder %v, serial", cfg.Seed, o.seed, cfg.ClientCounts))
	if o.trace {
		start := time.Now()
		simWarm(cfg)
		return simLayers(o, cfg, time.Since(start).Seconds(), res)
	}
	budget := time.Duration(o.seconds) * time.Second
	var kids []simChild
	var elapsed, last time.Duration
	for len(kids) < simMinRounds || elapsed+last/2 < budget {
		start := time.Now()
		k, err := simRoundChild(o.seed)
		if err != nil {
			return res, err
		}
		last = time.Since(start)
		elapsed += last
		kids = append(kids, k)
	}
	var walls []int64
	var setups, rss []float64
	var points int64
	for i, k := range kids {
		walls = append(walls, k.WallNS)
		setups = append(setups, k.SetupS)
		rss = append(rss, k.PeakRSSMB)
		points += k.Points
		res.attempted += k.Points
		res.failed += k.Failed
		for _, e := range k.Errors {
			res.errs = append(res.errs, errors.New(e))
		}
		fig := func(name string) float64 { return time.Duration(k.FigWallNS[name]).Seconds() }
		res.notes = append(res.notes, fmt.Sprintf("round %d: set-up %.3f s, round %.3f s (fig4 %.3f, fig6 %.3f, fig9 %.3f, fig-chase %.3f), peak RSS %.1f MB",
			i, k.SetupS, time.Duration(k.WallNS).Seconds(), fig("bench.fig4_s"), fig("bench.fig6_s"), fig("bench.fig9_s"), fig("bench.figchase_s"), k.PeakRSSMB))
	}
	m := res.metrics
	n := int64(len(kids))
	medianRound := medianFloat(int64sToFloats(walls)) / 1e9
	m.set("setup_s", medianFloat(setups), n, "median over the round processes of the set-up pass")
	m.set("ops_per_s", float64(kids[0].Points)/medianRound, points, fmt.Sprintf("figure points per round / median round seconds (%d rounds)", n))
	m.set("call_p50_us", medianRound*1e6, n, "median wall time of a round of the four figure calls")
	m.set("call_p90_us", float64(percentile(walls, 0.9))/1e3, n, "90th-percentile (nearest-rank) wall time of a round")
	m.set("peak_rss_mb", medianFloat(rss), n, "median over the round processes of each one's peak")
	return res, nil
}

// simLayers is the traced sim-apps run: one plain round and one round
// under the CPU profiler with a span per figure call.
func simLayers(o options, cfg bench.Config, setup float64, res runResult) (runResult, error) {
	res.metrics = newMetricSet(perLayer)
	m := res.metrics
	runtime.GC()
	base := runSimRound(cfg, nil, 0)
	runtime.GC()
	rec := newSpanRecorder(64)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return res, err
	}
	traced := runSimRound(cfg, rec, 1)
	pprof.StopCPUProfile()
	for _, r := range []simRound{base, traced} {
		res.attempted += r.points
		res.failed += r.failed
		res.errs = append(res.errs, r.errs...)
	}

	for _, f := range simFigs {
		m.set(f.metric, base.figWall[f.metric].Seconds(), 1, "")
	}
	m.set("sim.wall_s", base.wall.Seconds(), base.points, "serial figure calls")
	c := base.counters()
	m.set("sim.events", float64(c.events), base.points, "summed over figure points")
	m.set("sim.bursts", float64(c.bursts), base.points, "summed over figure points")
	m.ratio("sim.mean_burst_len", float64(c.events), float64(c.bursts), "events / bursts")
	m.set("sim.timer_fires", float64(c.timerFires), base.points, "summed over figure points")
	m.set("sim.wheel_cascades", float64(c.cascades), base.points, "summed over figure points")
	m.set("sim.windows", float64(c.windows), base.points, "summed over figure points")
	m.set("sim.barriers", float64(c.barriers), base.points, "summed over figure points")
	m.ratio("sim.ns_per_event", float64(base.wall.Nanoseconds()), float64(c.events), "figure-call ns / events")
	m.set("sim.allocs_per_op", c.allocsPerOp, base.points, "mean over figure points of heap allocations / measured op")
	m.set("sim.bytes_per_op", c.bytesPerOp, base.points, "mean over figure points of heap bytes / measured op")
	m.ratio("sim.steps_per_program", float64(c.progSteps), float64(c.progOps), "fig-chase steps / programs")

	if err := setCPUShares(m, prof.Bytes()); err != nil {
		return res, err
	}
	overhead := div(div(float64(traced.points), traced.wall.Seconds()), div(float64(base.points), base.wall.Seconds()))
	m.set("trace.overhead", overhead, 2, "traced / untraced figure points per second")
	m.set("trace.profile_overhead", overhead, 2, "profiled / untraced figure points per second")
	m.set("trace.calls", float64(len(simFigs)), int64(len(simFigs)), "traced figure calls")
	res.notes = append(res.notes, fmt.Sprintf("setup %.3fs (not a per-layer metric)", setup))
	if err := writeTraceFiles(o, &res, rec, prof.Bytes(), nil); err != nil {
		return res, err
	}
	return res, nil
}

// setCPUShares fills the cpu.* metrics from a CPU profile.
func setCPUShares(m metricSet, prof []byte) error {
	shares, samples, err := cpuShares(prof)
	if err != nil {
		return err
	}
	for name := range m {
		if layer, ok := strings.CutPrefix(name, "cpu."); ok && layer != "samples" {
			m.set(name, shares[layer], samples, "share of sampled CPU time")
		}
	}
	m.set("cpu.samples", float64(samples), samples, "CPU profile samples")
	return nil
}

// writeTraceFiles leaves the spans and profiles of a traced run in the
// output directory and notes where.
func writeTraceFiles(o options, res *runResult, rec *spanRecorder, cpuProf, mutexProf []byte) error {
	stem := filepath.Join(o.out, "trace", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	res.notes = append(res.notes, fmt.Sprintf("trace: %d spans kept (%d over the limit not kept), profiles and spans at %s.*",
		len(rec.spans), rec.dropped, stem))
	if err := os.MkdirAll(filepath.Dir(stem), 0o755); err != nil {
		return err
	}
	if err := rec.writeFile(stem + ".spans.jsonl"); err != nil {
		return err
	}
	if err := os.WriteFile(stem+".cpu.pprof", cpuProf, 0o644); err != nil {
		return err
	}
	if mutexProf != nil {
		return os.WriteFile(stem+".mutex.pprof", mutexProf, 0o644)
	}
	return nil
}

// sockPath is a short relative path for the live server's socket:
// unix socket addresses are limited to about a hundred bytes.
func sockPath(o options, phase int) string {
	return filepath.Join(o.out, fmt.Sprintf("s%d-%d.sock", os.Getpid(), phase))
}

// runLive runs a live workload. Untraced: provision the live stack
// liveSetups times (setup_s is the median; the last one is measured),
// measure closed-loop for the run's seconds, then read every key back.
// Traced: three fresh sessions of a third of the seconds each — plain
// (latencies by call type, transport counters, memory statistics),
// profiled (CPU and mutex profiles), and span-traced (per-round-trip
// split, then the read-back).
func runLive(o options) (runResult, error) {
	spec := liveSpecs[o.workload]
	n := liveClients()
	res := runResult{}
	res.notes = append(res.notes, fmt.Sprintf("%d closed-loop clients, one socket each; %d keys, %d-byte values, %.0f%% reads, %d key(s) per read call",
		n, liveKeys, spec.valueSize, spec.readFrac*100, spec.train))
	if o.trace {
		return liveLayers(o, spec, n, res)
	}
	return liveEndToEnd(o, spec, n, res)
}

// liveEndToEnd is the untraced live run.
func liveEndToEnd(o options, spec liveSpec, n int, res runResult) (runResult, error) {
	budget := time.Duration(o.seconds) * time.Second
	res.metrics = newMetricSet(endToEnd)
	var setups []float64
	var s *liveSession
	for i := 0; i < liveSetups; i++ {
		if s != nil {
			s.close()
			s = nil
			releaseMemory()
		}
		start := time.Now()
		var err error
		if s, err = newLiveSession(spec, sockPath(o, i), n, nil, 0); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	releaseMemory() // collect set-up garbage before the window, not in it
	elapsed := s.measure(o.seed, 0, budget)
	t := s.totals(elapsed)
	checked, failed, errs := s.readback()
	s.close()
	res.attempted = t.attempted() + checked
	res.failed = t.failed + failed
	res.errs = append(t.errs, errs...)
	m := res.metrics
	kind := spec.primary
	m.set("setup_s", medianFloat(setups), int64(len(setups)), "")
	perSecond := fmt.Sprintf("median over %d whole seconds", len(t.slices))
	res.notes = append(res.notes, "per-second key-ops and "+callKindNames[kind]+"-call p50/p90/p99 (us):")
	for i := range t.slices {
		sl := &t.slices[i]
		h := &sl.lat
		res.notes = append(res.notes, fmt.Sprintf("  second %2d: %8d  %8.2f %8.2f %8.2f", i, sl.keyOps,
			float64(h.quantile(0.5))/1e3, float64(h.quantile(0.9))/1e3, float64(h.quantile(0.99))/1e3))
	}
	m.set("ops_per_s", t.sliceOpsPerSec(), t.keyOps, perSecond+" of key-ops completed")
	m.set("call_p50_us", t.sliceLatencyUS(kind, 0.5), t.calls[kind], perSecond+" of the "+callKindNames[kind]+"-call median")
	m.set("call_p90_us", t.sliceLatencyUS(kind, 0.90), t.calls[kind], perSecond+" of the "+callKindNames[kind]+"-call p90")
	res.notes = append(res.notes, fmt.Sprintf("%s-call p99 %.3f us, %s; other calls: p50 %.3f us, p99 %.3f us (n=%d)",
		callKindNames[kind], t.sliceLatencyUS(kind, 0.99), perSecond,
		t.latencyUS(1-kind, 0.5), t.latencyUS(1-kind, 0.99), t.calls[1-kind]))
	m.set("peak_rss_mb", peakRSSMB(), 1, "")
	return res, nil
}

// liveLayers is the traced live run: three fresh sessions of a third of
// the run's seconds each.
func liveLayers(o options, spec liveSpec, n int, res runResult) (runResult, error) {
	res.metrics = newMetricSet(perLayer)
	m := res.metrics
	phase := time.Duration(o.seconds) * time.Second / 3
	addChecks := func(t liveTotals) {
		res.attempted += t.attempted()
		res.failed += t.failed
		res.errs = append(res.errs, t.errs...)
	}

	// Plain session: latencies by call type, counters, memory.
	s, err := newLiveSession(spec, sockPath(o, 0), n, nil, 0)
	if err != nil {
		return res, err
	}
	releaseMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	elapsed := s.measure(o.seed, 0, phase)
	runtime.ReadMemStats(&ms1)
	base := s.totals(elapsed)
	var cw, cf, cb, cr int64
	var probes, casFail int64
	for _, c := range s.clients {
		w, f, b := c.tc.FlushStats()
		r, _ := c.tc.ReadStats()
		cw, cf, cb, cr = cw+w, cf+f, cb+b, cr+r
		probes += c.lc.Probes
		casFail += c.lc.CASFail
	}
	s.close()
	srv := s.srv
	releaseMemory()
	addChecks(base)
	calls := float64(base.attempted())
	ops := float64(base.keyOps)
	m.set("live.get_p50_us", base.latencyUS(callGet, 0.5), base.calls[callGet], "untraced get calls")
	m.set("live.get_p99_us", base.latencyUS(callGet, 0.99), base.calls[callGet], "untraced get calls")
	m.set("live.put_p50_us", base.latencyUS(callPut, 0.5), base.calls[callPut], "untraced put calls")
	m.set("live.put_p99_us", base.latencyUS(callPut, 0.99), base.calls[callPut], "untraced put calls")
	m.ratio("transport.client_writes_per_call", float64(cw), calls, "client write syscalls / calls")
	m.ratio("transport.client_frames_per_write", float64(cf), float64(cw), "client frames / write syscalls")
	m.ratio("transport.client_bytes_per_op", float64(cb), ops, "client bytes written / key-ops")
	m.ratio("transport.client_reads_per_call", float64(cr), calls, "client read syscalls / calls")
	m.ratio("transport.server_batch_len", float64(srv.BatchFrames.Load()), float64(srv.Batches.Load()), "server frames / wakeup batches")
	m.ratio("transport.server_frames_per_write", float64(srv.FramesOut.Load()), float64(srv.Writes.Load()), "server frames / write syscalls")
	m.ratio("transport.server_verbs_per_op", float64(srv.OpsExecuted.Load()), ops, "verbs executed / key-ops")
	m.ratio("kv.probes_per_op", float64(probes), ops, "LiveClient.Probes / key-ops")
	m.ratio("kv.cas_fail_per_put", float64(casFail), float64(base.calls[callPut]), "LiveClient.CASFail / puts")
	m.ratio("live.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs), ops, "heap allocations / key-ops")
	m.ratio("live.bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc), ops, "heap bytes / key-ops")
	m.set("live.gc_per_s", div(float64(ms1.NumGC-ms0.NumGC), elapsed.Seconds()), int64(ms1.NumGC-ms0.NumGC), "GC cycles / measured seconds")

	// Profiled session: CPU shares and mutex delay.
	if s, err = newLiveSession(spec, sockPath(o, 1), n, nil, 0); err != nil {
		return res, err
	}
	releaseMemory()
	runtime.SetMutexProfileFraction(1)
	var cpuProf, mutexProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return res, err
	}
	elapsed = s.measure(o.seed, 1, phase)
	pprof.StopCPUProfile()
	if err := pprof.Lookup("mutex").WriteTo(&mutexProf, 0); err != nil {
		return res, err
	}
	runtime.SetMutexProfileFraction(0)
	profiled := s.totals(elapsed)
	s.close()
	releaseMemory()
	addChecks(profiled)
	if err := setCPUShares(m, cpuProf.Bytes()); err != nil {
		return res, err
	}
	guard, total, err := mutexDelays(mutexProf.Bytes())
	if err != nil {
		return res, err
	}
	pops := float64(profiled.keyOps)
	m.ratio("memory.guard_wait_us_per_op", float64(guard)/1e3, pops, "space-guard contention µs / key-ops")
	m.ratio("mutex.wait_us_per_op", float64(total)/1e3, pops, "all mutex contention µs / key-ops")

	// Span-traced session: the per-round-trip split, then the read-back.
	rec := newSpanRecorder(1 << 16)
	if s, err = newLiveSession(spec, sockPath(o, 2), n, rec, 2048); err != nil {
		return res, err
	}
	releaseMemory()
	for _, p := range s.pairs {
		p.setMeasuring(true)
	}
	elapsed = s.measure(o.seed, 2, phase)
	for _, p := range s.pairs {
		p.setMeasuring(false)
	}
	traced := s.totals(elapsed)
	checked, failed, errs := s.readback()
	s.close()
	addChecks(traced)
	res.attempted += checked
	res.failed += failed
	res.errs = append(res.errs, errs...)
	setSpanMetrics(m, s.pairs)

	m.set("trace.overhead", div(traced.opsPerSec(), base.opsPerSec()), 2, "span-traced / untraced key-ops per second")
	m.set("trace.profile_overhead", div(profiled.opsPerSec(), base.opsPerSec()), 2, "profiled / untraced key-ops per second")
	if err := writeTraceFiles(o, &res, rec, cpuProf.Bytes(), mutexProf.Bytes()); err != nil {
		return res, err
	}
	return res, nil
}

// setSpanMetrics fills the per-round-trip split from the pair tracers.
func setSpanMetrics(m metricSet, pairs []*pairTracer) {
	var comps [nCallKinds][nComps]latHist
	var rtts, counted [nCallKinds]int64
	var reclaims, broken int64
	for _, p := range pairs {
		p.mu.Lock()
		for k := range comps {
			for c := range comps[k] {
				comps[k][c].merge(&p.comps[k][c])
			}
			rtts[k] += p.rtts[k]
			counted[k] += p.counted[k]
		}
		reclaims += p.reclaims
		broken += p.broken
		p.mu.Unlock()
	}
	for k := callKind(0); k < nCallKinds; k++ {
		kind := callKindNames[k]
		for c := 0; c < nComps; c++ {
			name := compNames[c] + "_us." + kind
			m.set(name, float64(comps[k][c].quantile(0.5))/1e3, counted[k], "median over "+kind+" calls of the per-call sum over round trips")
		}
	}
	m.ratio("rtt_per_get", float64(rtts[callGet]), float64(counted[callGet]), "round trips / traced get calls")
	m.ratio("rtt_per_put", float64(rtts[callPut]), float64(counted[callPut]), "round trips / traced put calls")
	m.ratio("kv.reclaim_per_put", float64(reclaims), float64(counted[callPut]), "reclamation SENDs / traced put calls")
	m.set("trace.calls", float64(counted[callGet]+counted[callPut]), counted[callGet]+counted[callPut], fmt.Sprintf("traced calls (%d more unmatched)", broken))
}
