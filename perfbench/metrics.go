package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef describes one reported metric: its unit, which direction is
// better, the layer it measures, and the end-to-end metric (and
// workload) it is expected to move. The end-to-end and per-layer lists
// below are the benchmark's metric surface; BENCHMARK.json mirrors their
// names, units and directions (TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	layer  string
	moves  string
}

// endToEnd is reported by every untraced run, on every workload. An
// "op" is a key operation on the live workloads (a 16-key GET train
// counts 16) and one figure point (an independent simulation) on
// sim-apps; a "call" is one primary client call on the live workloads
// (the GET train on live-read, the PUT on live-write) and one round of
// the four serial figure calls on sim-apps. (Single figure points are
// too noisy to be the sim-apps call: on two cores the same point's wall
// time varies by a third from round to round, while a round's varies
// by a few percent.)
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "all", "median of several set-ups (7 live; one per round process, sim-apps): provisioning, preload, listen, dial, connect, meta fetch (live); the cluster-template pass (sim-apps)"},
	{"ops_per_s", "1/s", "higher", "all", "key-ops per second, median over the window's seconds (live); figure points per median round second (sim-apps)"},
	{"call_p50_us", "us", "lower", "all", "median primary-call latency, median over the window's seconds (live); median round wall time (sim-apps)"},
	{"call_p90_us", "us", "lower", "all", "90th-percentile primary-call latency, median over the window's seconds (live); nearest-rank p90 round wall time (sim-apps)"},
	{"peak_rss_mb", "MB", "lower", "all", "peak resident memory of the benchmark process (sim-apps: median over its round processes)"},
}

// perLayer is reported by every traced run. Metrics of a layer a
// workload does not run read 0 on that workload.
var perLayer = []metricDef{
	// internal/bench + internal/sim (sim-apps).
	{"sim.wall_s", "s", "lower", "bench", "ops_per_s on sim-apps (the serial figure calls)"},
	{"bench.fig4_s", "s", "lower", "bench/kv", "ops_per_s on sim-apps"},
	{"bench.fig6_s", "s", "lower", "bench/abd", "ops_per_s on sim-apps"},
	{"bench.fig9_s", "s", "lower", "bench/tx", "ops_per_s on sim-apps"},
	{"bench.figchase_s", "s", "lower", "bench/prism", "ops_per_s on sim-apps"},
	{"sim.events", "count", "lower", "sim", "ops_per_s on sim-apps"},
	{"sim.bursts", "count", "lower", "sim", "ops_per_s on sim-apps"},
	{"sim.mean_burst_len", "events", "higher", "sim", "ops_per_s on sim-apps"},
	{"sim.timer_fires", "count", "lower", "sim", "ops_per_s on sim-apps"},
	{"sim.wheel_cascades", "count", "lower", "sim", "ops_per_s on sim-apps"},
	{"sim.windows", "count", "lower", "sim", "ops_per_s on sim-apps"},
	{"sim.barriers", "count", "lower", "sim", "ops_per_s on sim-apps"},
	{"sim.ns_per_event", "ns", "lower", "sim", "ops_per_s on sim-apps"},
	{"sim.allocs_per_op", "allocs", "lower", "sim", "ops_per_s, peak_rss_mb on sim-apps"},
	{"sim.bytes_per_op", "B", "lower", "sim", "ops_per_s, peak_rss_mb on sim-apps"},
	{"sim.steps_per_program", "steps", "lower", "prism", "ops_per_s on sim-apps (fig-chase)"},

	// Live per-round-trip split from the spans, per GET call and per
	// PUT call (medians of per-call sums over the call's round trips).
	{"client.stage_us.get", "us", "lower", "client", "call_p50_us on live-read"},
	{"kernel.c2s_us.get", "us", "lower", "kernel", "call_p50_us on live-read"},
	{"server.handle_us.get", "us", "lower", "transport server", "call_p50_us on live-read"},
	{"kernel.s2c_us.get", "us", "lower", "kernel", "call_p50_us on live-read"},
	{"client.complete_us.get", "us", "lower", "client", "call_p50_us on live-read"},
	{"client.stage_us.put", "us", "lower", "client", "call_p50_us on live-write"},
	{"kernel.c2s_us.put", "us", "lower", "kernel", "call_p50_us on live-write"},
	{"server.handle_us.put", "us", "lower", "transport server", "call_p50_us on live-write"},
	{"kernel.s2c_us.put", "us", "lower", "kernel", "call_p50_us on live-write"},
	{"client.complete_us.put", "us", "lower", "client", "call_p50_us on live-write"},
	{"rtt_per_get", "rtt", "lower", "kv", "call_p50_us on live-read"},
	{"rtt_per_put", "rtt", "lower", "kv", "call_p50_us on live-write"},
	{"kv.reclaim_per_put", "sends", "lower", "kv", "call_p90_us on live-write"},

	// Untraced live latencies by call type (the end-to-end call
	// metrics cover only each workload's primary call).
	{"live.get_p50_us", "us", "lower", "all", "call_p50_us on live-read"},
	{"live.get_p99_us", "us", "lower", "all", "call_p90_us on live-read"},
	{"live.put_p50_us", "us", "lower", "all", "call_p50_us on live-write"},
	{"live.put_p99_us", "us", "lower", "all", "call_p90_us on live-write"},

	// internal/transport public counters (live).
	{"transport.client_writes_per_call", "writes", "lower", "transport client", "ops_per_s on live-read"},
	{"transport.client_frames_per_write", "frames", "higher", "transport client", "ops_per_s on live-read"},
	{"transport.client_bytes_per_op", "B", "lower", "transport client", "ops_per_s on live-read"},
	{"transport.client_reads_per_call", "reads", "lower", "transport client", "ops_per_s on live-read"},
	{"transport.server_batch_len", "frames", "higher", "transport server", "ops_per_s on live-read"},
	{"transport.server_frames_per_write", "frames", "higher", "transport server", "ops_per_s on live-read"},
	{"transport.server_verbs_per_op", "verbs", "lower", "transport server", "ops_per_s on live"},

	// internal/kv + internal/memory (live).
	{"kv.probes_per_op", "probes", "lower", "kv", "call_p50_us on live-write"},
	{"kv.cas_fail_per_put", "fails", "lower", "kv", "call_p50_us on live-write"},
	{"memory.guard_wait_us_per_op", "us", "lower", "memory", "ops_per_s on live"},
	{"mutex.wait_us_per_op", "us", "lower", "all", "ops_per_s on live"},

	// Whole process (live).
	{"live.allocs_per_op", "allocs", "lower", "all", "ops_per_s, peak_rss_mb on live"},
	{"live.bytes_per_op", "B", "lower", "all", "ops_per_s, peak_rss_mb on live"},
	{"live.gc_per_s", "1/s", "lower", "runtime", "ops_per_s on live"},

	// CPU profile shares by package (every workload).
	{"cpu.sim", "share", "lower", "sim", "ops_per_s on sim-apps"},
	{"cpu.fabric", "share", "lower", "fabric", "ops_per_s on sim-apps"},
	{"cpu.rdma", "share", "lower", "rdma", "ops_per_s on sim-apps"},
	{"cpu.model", "share", "lower", "model", "ops_per_s on sim-apps"},
	{"cpu.prism", "share", "lower", "prism", "ops_per_s"},
	{"cpu.memory", "share", "lower", "memory", "ops_per_s"},
	{"cpu.alloc", "share", "lower", "alloc", "ops_per_s"},
	{"cpu.wire", "share", "lower", "wire", "ops_per_s on live"},
	{"cpu.kv", "share", "lower", "kv", "ops_per_s"},
	{"cpu.abd", "share", "lower", "abd", "ops_per_s on sim-apps"},
	{"cpu.tx", "share", "lower", "tx", "ops_per_s on sim-apps"},
	{"cpu.bench", "share", "lower", "bench", "ops_per_s on sim-apps"},
	{"cpu.stats", "share", "lower", "stats", "ops_per_s on sim-apps"},
	{"cpu.workload", "share", "lower", "workload", "ops_per_s on sim-apps"},
	{"cpu.transport", "share", "lower", "transport", "ops_per_s on live"},
	{"cpu.syscall", "share", "lower", "kernel", "ops_per_s on live"},
	{"cpu.sched", "share", "lower", "runtime", "ops_per_s on live"},
	{"cpu.gc", "share", "lower", "runtime", "ops_per_s"},
	{"cpu.harness", "share", "lower", "benchmark", "none (the benchmark's own code)"},
	{"cpu.other", "share", "lower", "runtime/std", "ops_per_s"},
	{"cpu.samples", "count", "higher", "profile", "base of the cpu.* shares"},

	// Tracing cost.
	{"trace.overhead", "ratio", "higher", "benchmark", "traced/untraced ops_per_s"},
	{"trace.profile_overhead", "ratio", "higher", "benchmark", "profiled/untraced ops_per_s"},
	{"trace.calls", "count", "higher", "benchmark", "base of the span medians"},
}

// metricSet is one run's metrics, keyed by name.
type metricSet map[string]*metricVal

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarizes; Base
	// explains the denominator of a ratio. Neither goes on the result
	// line, which carries value and unit only.
	Samples int64  `json:"samples,omitempty"`
	Base    string `json:"base,omitempty"`
}

// newMetricSet returns every metric of defs at zero.
func newMetricSet(defs []metricDef) metricSet {
	ms := make(metricSet, len(defs))
	for _, d := range defs {
		ms[d.name] = &metricVal{Unit: d.unit}
	}
	return ms
}

// set records a metric value; the name must be in the set's catalog.
func (ms metricSet) set(name string, v float64, samples int64, base string) {
	m, ok := ms[name]
	if !ok {
		panic("perfbench: metric not in catalog: " + name)
	}
	m.Value, m.Samples, m.Base = v, samples, base
}

// ratio sets name to num/den (0 when den is 0) and records the base.
func (ms metricSet) ratio(name string, num, den float64, base string) {
	ms.set(name, div(num, den), int64(den), fmt.Sprintf("%s (%.0f / %.0f)", base, num, den))
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (ms metricSet) result() map[string]resultItem {
	out := make(map[string]resultItem, len(ms))
	for name, m := range ms {
		out[name] = resultItem{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// fprint writes one line per metric: name, value, unit, sample count
// and the base of ratios.
func (ms metricSet) fprint(w io.Writer) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		line := fmt.Sprintf("  %-36s %16.6f %-7s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if m.Base != "" {
			line += " base: " + m.Base
		}
		fmt.Fprintln(w, line)
	}
}
