package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"prism/internal/bench"
)

// The sim-apps workload regenerates fig4 (PRISM-KV vs Pilaf, YCSB-A),
// fig6 (PRISM-RS vs ABD-LOCK), fig9 (PRISM-TX vs FaRM) and fig-chase
// serially through the public bench.Fig* functions, and checks each
// figure's CSV against its recorded SHA-256.

type simFig struct {
	id     string
	metric string
	fn     func(bench.Config) *bench.Figure
}

var simFigs = []simFig{
	{"fig4", "bench.fig4_s", bench.Fig4},
	{"fig6", "bench.fig6_s", bench.Fig6},
	{"fig9", "bench.fig9_s", bench.Fig9},
	{"fig-chase", "bench.figchase_s", bench.FigChase},
}

// simSeeds is how many figure seeds the benchmark runs: the run seed
// selects one, and every one has recorded digests (digests.go).
const simSeeds = 8

// simSeed maps a run seed to the figure seed it regenerates with.
func simSeed(seed int64) int64 {
	return 1 + (seed%simSeeds+simSeeds)%simSeeds
}

// simConfig is the default figure configuration with the client ladder
// capped at 64 (7 points per series, 21 per figure), run serially.
func simConfig(seed int64) bench.Config {
	cfg := bench.DefaultConfig()
	var ladder []int
	for _, c := range cfg.ClientCounts {
		if c <= 64 {
			ladder = append(ladder, c)
		}
	}
	cfg.ClientCounts = ladder
	cfg.Seed = simSeed(seed)
	cfg.Parallel, cfg.Intra = 1, 1
	return cfg
}

// simWarm is the set-up pass: one one-client point per series of every
// figure, which builds every cluster template the measured calls fork
// from (templates are keyed by system, keyspace and value size, which
// the warm pass shares with cfg).
func simWarm(cfg bench.Config) {
	w := cfg
	w.ClientCounts = []int{1}
	w.ChaseDepths = []int{1}
	w.Warmup = 0
	w.Measure = 20 * time.Microsecond
	for _, f := range simFigs {
		f.fn(w)
	}
}

// simMinRounds is the fewest rounds an untraced sim-apps run measures,
// so that its medians have at least three samples.
const simMinRounds = 3

// simRoundCmd is the subcommand an untraced sim-apps run starts for
// each of its rounds. Each round runs in a fresh process, which times
// the set-up pass and then one round: the template cache lives for the
// process, so only a fresh process can time set-up again, and on a
// shared host the same round's time varies more between processes than
// within one, so medians over processes are steadier.
const simRoundCmd = "sim-round"

// simChild is what one sim-round process reports.
type simChild struct {
	SetupS    float64          `json:"setup_s"`
	WallNS    int64            `json:"wall_ns"`
	FigWallNS map[string]int64 `json:"fig_wall_ns"`
	Points    int64            `json:"points"`
	Failed    int64            `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	PeakRSSMB float64          `json:"peak_rss_mb"`
}

// simRoundMain times the set-up pass and one round for --seed and
// prints a simChild as JSON.
func simRoundMain(args []string) int {
	fs := flag.NewFlagSet(simRoundCmd, flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	if fs.Parse(args) != nil {
		return 2
	}
	cfg := simConfig(*seed)
	start := time.Now()
	simWarm(cfg)
	setup := time.Since(start).Seconds()
	runtime.GC() // the round starts from the set-up pass's live heap only
	r := runSimRound(cfg, nil, 0)
	k := simChild{SetupS: setup, WallNS: int64(r.wall), FigWallNS: map[string]int64{},
		Points: r.points, Failed: r.failed, PeakRSSMB: peakRSSMB()}
	for name, d := range r.figWall {
		k.FigWallNS[name] = int64(d)
	}
	for _, err := range r.errs {
		k.Errors = append(k.Errors, err.Error())
	}
	if err := json.NewEncoder(os.Stdout).Encode(k); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return 0
}

// simRoundChild runs simRoundMain in a fresh process and returns what
// it reported.
func simRoundChild(seed int64) (simChild, error) {
	var k simChild
	self, err := os.Executable()
	if err != nil {
		return k, err
	}
	cmd := exec.Command(self, simRoundCmd, "--seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return k, fmt.Errorf("sim-apps round in a fresh process: %w", err)
	}
	if err := json.Unmarshal(out, &k); err != nil {
		return k, fmt.Errorf("sim-apps round in a fresh process: %w", err)
	}
	return k, nil
}

// figureDigest is the SHA-256 of a figure's CSV rendering.
func figureDigest(fig *bench.Figure) string {
	var b bytes.Buffer
	fig.FprintCSV(&b)
	return csvDigest(b.Bytes())
}

func csvDigest(csv []byte) string {
	sum := sha256.Sum256(csv)
	return hex.EncodeToString(sum[:])
}

// checkDigest compares a figure's CSV digest with the recorded one.
func checkDigest(id string, figSeed int64, got string) error {
	want, ok := simDigests[figSeed][id]
	if !ok {
		return fmt.Errorf("%s: no recorded digest for figure seed %d", id, figSeed)
	}
	if got != want {
		return fmt.Errorf("%s: CSV digest %s differs from the recorded %s (figure seed %d)", id, got[:16], want[:16], figSeed)
	}
	return nil
}

// simRound is one serial pass over the figures.
type simRound struct {
	figWall map[string]time.Duration
	wall    time.Duration
	tel     map[string][]bench.Telemetry
	points  int64
	failed  int64
	errs    []error
}

// runSimRound calls every figure once and checks its output: a point
// with Errors > 0 fails, and a digest mismatch fails every point of
// its figure. rec, when non-nil, gets a span per figure call.
func runSimRound(cfg bench.Config, rec *spanRecorder, call int64) simRound {
	r := simRound{figWall: map[string]time.Duration{}, tel: map[string][]bench.Telemetry{}}
	parent := -1
	var roundStart int64
	if rec != nil {
		roundStart = rec.now()
	}
	var kids []span
	for _, f := range simFigs {
		var spanStart int64
		if rec != nil {
			spanStart = rec.now()
		}
		start := time.Now()
		fig := f.fn(cfg)
		d := time.Since(start)
		if rec != nil {
			kids = append(kids, span{Name: f.metric[:len(f.metric)-2], Start: spanStart, End: rec.now(), Call: call})
		}
		r.figWall[f.metric] = d
		r.wall += d
		r.tel[f.id] = fig.PointTel
		var pts int64
		for _, s := range fig.Series {
			for _, pt := range s.Points {
				pts++
				if pt.Errors > 0 {
					r.failed++
					if len(r.errs) < maxKeptErrors {
						r.errs = append(r.errs, fmt.Errorf("%s/%s clients=%d: %d client errors", f.id, s.Name, pt.Clients, pt.Errors))
					}
				}
			}
		}
		r.points += pts
		if err := checkDigest(f.id, cfg.Seed, figureDigest(fig)); err != nil {
			r.failed += pts
			r.errs = append(r.errs, err)
		}
	}
	if rec != nil {
		parent = rec.add(span{Name: "sim.round", Start: roundStart, End: rec.now(), Parent: -1, Call: call})
		for _, k := range kids {
			k.Parent = parent
			if parent >= 0 {
				rec.add(k)
			}
		}
	}
	return r
}

// simCounters sums the scheduler telemetry of a round's points.
type simCounters struct {
	events, bursts, timerFires, cascades, windows, barriers int64
	progOps, progSteps                                      int64
	allocsPerOp, bytesPerOp                                 float64 // mean over points that report them
}

func (r *simRound) counters() simCounters {
	var c simCounters
	var n int
	for _, tels := range r.tel {
		for _, t := range tels {
			c.events += t.EventsExecuted
			c.bursts += t.Bursts
			c.timerFires += t.TimerFires
			c.cascades += t.WheelCascades
			c.windows += t.Windows
			c.barriers += t.Barriers
			c.progOps += t.ProgramOps
			c.progSteps += t.StepsExecuted
			if t.AllocsPerOp > 0 || t.BytesPerOp > 0 {
				c.allocsPerOp += t.AllocsPerOp
				c.bytesPerOp += t.BytesPerOp
				n++
			}
		}
	}
	if n > 0 {
		c.allocsPerOp /= float64(n)
		c.bytesPerOp /= float64(n)
	}
	return c
}
