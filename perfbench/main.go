// Command perfbench is the repository's benchmark. It drives both halves
// of the repository from one process, only through their public
// functions: the simulator through bench.Fig4/Fig6/Fig9/FigChase, and
// the live datapath through an in-process transport.Server serving
// PRISM-KV on a unix socket to kv.LiveClient callers.
//
//	perfbench --workload sim-apps|live-read|live-write|all --seed N --seconds S --trace 0|1
//	perfbench compare OLD.json NEW.json
//	perfbench record-digests
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer split: spans recorded around the
// calls and inside wrappers of the sockets handed to the transport, the
// transport's public counters, and CPU and mutex profiles attributed by
// package. Every run checks the program's outputs, prints each metric
// by name with its unit and sample count, writes a record carrying the
// host fingerprint, and ends with one JSON result line. It exits 1 when
// an output check failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for records, spans, profiles and sockets
}

// runResult is what one workload run produced.
type runResult struct {
	metrics   metricSet
	attempted int64
	failed    int64
	errs      []error
	notes     []string // human-readable lines printed before the metrics
}

// record is the JSON file each run leaves in the output directory.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Correct     bool        `json:"correct"`
	Attempted   int64       `json:"attempted"`
	Failed      int64       `json:"failed"`
	Metrics     metricSet   `json:"metrics"`
	Errors      []string    `json:"errors,omitempty"`
}

var workloads = []string{"sim-apps", "live-read", "live-write"}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "record-digests":
			os.Exit(recordDigests())
		case simRoundCmd:
			os.Exit(simRoundMain(os.Args[2:]))
		}
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "sim-apps, live-read, live-write, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for records, spans and sockets")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || o.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var res runResult
	var err error
	switch {
	case o.workload == "sim-apps":
		res, err = runSim(o)
	case liveSpecs[o.workload] != (liveSpec{}):
		res, err = runLive(o)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", o.workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(report(o, res))
}

// report prints the run's fingerprint, notes, metrics and failures,
// writes its record, and prints the result line last. It returns the
// exit code.
func report(o options, res runResult) int {
	fp := fingerprint{
		Host:         currentHost(),
		Commit:       gitCommit("."),
		SourceDigest: sourceDigest("."),
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Trace:        o.trace,
	}
	fpJSON, _ := json.Marshal(fp)
	mode := "untraced (end-to-end metrics)"
	if o.trace {
		mode = "traced (per-layer metrics)"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d %s\n", o.workload, o.seed, o.seconds, mode)
	fmt.Printf("fingerprint %s\n", fpJSON)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	res.metrics.fprint(os.Stdout)
	correct := res.failed == 0
	rate := 0.0
	if res.attempted > 0 {
		rate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("checks: attempted=%d failed=%d error_rate=%g\n", res.attempted, res.failed, rate)
	rec := record{Fingerprint: fp, Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics}
	for _, e := range res.errs {
		fmt.Println("FAIL:", e)
		rec.Errors = append(rec.Errors, e.Error())
	}
	path := filepath.Join(o.out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, boolInt(o.trace)))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	} else {
		fmt.Println("record:", path)
	}
	line, _ := json.Marshal(resultLine{Correct: correct, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: res.metrics.result()})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// div is a/b, or 0 when b is 0 (JSON has no infinities).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in its own process (peak memory is per
// process) and ends with one combined result line.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	all := resultLine{Correct: true, Metrics: map[string]resultItem{}}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(boolInt(o.trace)), "--out", o.out)
		cmd.Stderr = os.Stderr
		outp, err := cmd.Output()
		os.Stdout.Write(outp)
		if err != nil {
			code = 1
		}
		var last resultLine
		lines := strings.Split(strings.TrimSpace(string(outp)), "\n")
		if json.Unmarshal([]byte(lines[len(lines)-1]), &last) != nil {
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && last.Correct
		all.Attempted += last.Attempted
		all.Failed += last.Failed
		for name, v := range last.Metrics {
			all.Metrics[w+"/"+name] = v
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	if !all.Correct {
		code = 1
	}
	return code
}

// compareMain compares two records metric by metric, refusing when
// their fingerprints say they are not comparable.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	a, b := recs[0], recs[1]
	fmt.Printf("old: commit %s source %s seed %d\nnew: commit %s source %s seed %d\n",
		a.Fingerprint.Commit, a.Fingerprint.SourceDigest, a.Fingerprint.Seed,
		b.Fingerprint.Commit, b.Fingerprint.SourceDigest, b.Fingerprint.Seed)
	if why := comparable(a.Fingerprint, b.Fingerprint); why != "" {
		fmt.Printf("NOT COMPARABLE: %s\n", why)
		return 1
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		x, ok1 := a.Metrics[d.name]
		y, ok2 := b.Metrics[d.name]
		if !ok1 || !ok2 {
			continue
		}
		delta := ""
		if x.Value != 0 {
			delta = fmt.Sprintf("%+.2f%%", (y.Value-x.Value)/x.Value*100)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %14.4f %-7s %9s (better: %s)\n", d.name, x.Value, y.Value, d.unit, delta, d.better)
	}
	return 0
}

// recordDigests runs every figure seed once and prints the digest table
// for digests.go.
func recordDigests() int {
	fmt.Println("var simDigests = map[int64]map[string]string{")
	for s := int64(1); s <= simSeeds; s++ {
		cfg := simConfig(s - 1)
		fmt.Printf("\t%d: {\n", cfg.Seed)
		for _, f := range simFigs {
			fig := f.fn(cfg)
			fmt.Printf("\t\t%q: %q,\n", f.id, figureDigest(fig))
		}
		fmt.Println("\t},")
	}
	fmt.Println("}")
	return 0
}
