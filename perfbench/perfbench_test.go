package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"prism/internal/bench"
	"prism/internal/memory"
	"prism/internal/wire"
)

func testSock(t *testing.T) string {
	t.Helper()
	// Relative to the package directory: short enough for a unix
	// socket address wherever the repository lives.
	dir, err := os.MkdirTemp(".", ".test-sock-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return filepath.Join(dir, "s.sock")
}

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{20, 21, 64, 1024} {
		b := make([]byte, size)
		fillValue(b, 77, 9)
		ver, err := checkValue(b, 77, size)
		if err != nil || ver != 9 {
			t.Fatalf("size %d: got version %d, err %v", size, ver, err)
		}
		if _, err := checkValue(b, 78, size); err == nil {
			t.Fatalf("size %d: value accepted for the wrong key", size)
		}
		b[size/2] ^= 1
		if _, err := checkValue(b, 77, size); !errors.Is(err, errValueChecksum) {
			t.Fatalf("size %d: corrupted value gave %v", size, err)
		}
	}
}

// Histogram quantiles stay within the bucket resolution of the exact
// nearest-rank quantile.
func TestHistQuantiles(t *testing.T) {
	rng := splitmix(3)
	var h latHist
	var xs []int64
	for i := 0; i < 100000; i++ {
		v := int64(rng.intn(1<<uint(rng.intn(30))) + 1)
		h.record(v)
		xs = append(xs, v)
	}
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := percentile(xs, p)
		got := h.quantile(p)
		if d := got - exact; d < -(exact>>histSub)-1 || d > exact>>histSub+1 {
			t.Errorf("p%g: histogram %d, exact %d", p*100, got, exact)
		}
	}
	var empty latHist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram has a quantile")
	}
}

// The live checker must flag a value corrupted in the server's memory
// (through Server.Space(), holding the guard as CPU-side access must),
// both on a measured read and in the read-back sweep.
func TestLiveCheckerFlagsCorruptedValue(t *testing.T) {
	spec := liveSpecs["live-write"]
	s, err := newLiveSession(spec, testSock(t), 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	c := s.clients[0]

	const key = 1234
	c.keys[0] = key
	c.read()
	if c.failed != 0 {
		t.Fatalf("intact value failed the check: %v", c.errs)
	}

	// Collisionless slot layout: slot i at HashBase + 24i holds
	// [tag BE | object ptr LE | len LE]; the object is
	// [key length LE | key BE | value].
	meta := c.lc.Meta()
	space := s.srv.Space()
	space.Guard().Lock()
	slot, err := space.Peek(meta.Key, meta.HashBase+key*24, 24)
	if err == nil {
		ptr := binary.LittleEndian.Uint64(slot[8:])
		at := ptr + 16 + uint64(spec.valueSize)/2
		var cur []byte
		if cur, err = space.Peek(meta.Key, memory.Addr(at), 1); err == nil {
			err = space.Write(meta.Key, memory.Addr(at), []byte{cur[0] ^ 0x5a})
		}
	}
	space.Guard().Unlock()
	if err != nil {
		t.Fatal(err)
	}

	c.read()
	if c.failed != 1 || len(c.errs) != 1 || !errors.Is(c.errs[0], errValueChecksum) {
		t.Fatalf("corrupted value: failed=%d errs=%v", c.failed, c.errs)
	}
	checked, failed, errs := s.readback()
	if checked != liveKeys || failed != 1 || !errors.Is(errs[0], errValueChecksum) {
		t.Fatalf("read-back: checked=%d failed=%d errs=%v", checked, failed, errs)
	}
}

// A read-back must also catch a key that lost its last acknowledged
// write (here: the acknowledgement is advanced past what was stored).
func TestReadbackFlagsLostWrite(t *testing.T) {
	s, err := newLiveSession(liveSpecs["live-read"], testSock(t), 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.clients[1].put(5)
	s.acked[7].Store(1)
	checked, failed, errs := s.readback()
	if checked != liveKeys || failed != 1 {
		t.Fatalf("read-back: checked=%d failed=%d errs=%v", checked, failed, errs)
	}
}

// The digest check passes the figure as generated and flags any change
// to its CSV.
func TestDigestFlagsChangedCSV(t *testing.T) {
	cfg := simConfig(0)
	fig := bench.FigChase(cfg)
	if err := checkDigest(fig.ID, cfg.Seed, figureDigest(fig)); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fig.FprintCSV(&b)
	csv := b.Bytes()
	csv[len(csv)-2] ^= 1
	if err := checkDigest(fig.ID, cfg.Seed, csvDigest(csv)); err == nil {
		t.Fatal("changed CSV passed the digest check")
	}
	if err := checkDigest(fig.ID, cfg.Seed+simSeeds, figureDigest(fig)); err == nil {
		t.Fatal("a figure seed without a recorded digest passed")
	}
}

// Every figure seed sim-apps can run has a digest for every figure.
func TestDigestTableComplete(t *testing.T) {
	for seed := int64(0); seed < simSeeds; seed++ {
		for _, f := range simFigs {
			if len(simDigests[simSeed(seed)][f.id]) != 64 {
				t.Errorf("figure seed %d: no digest for %s", simSeed(seed), f.id)
			}
		}
	}
}

// A traced live session: every kept call's child spans tile the call,
// so they sum to its duration exactly (the recorder's resolution is one
// nanosecond); GETs take one round trip, PUTs two, and one PUT in
// FreeBatch (16) sends a reclamation batch.
func TestSpanChildrenSumToCall(t *testing.T) {
	rec := newSpanRecorder(1 << 20)
	s, err := newLiveSession(liveSpecs["live-write"], testSock(t), 2, rec, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.pairs {
		p.setMeasuring(true)
	}
	s.measure(7, 0, 300*time.Millisecond)
	s.close()

	type call struct {
		parent   span
		children []span
	}
	calls := map[int]*call{}
	for i, sp := range rec.spans {
		if sp.Parent < 0 {
			calls[i] = &call{parent: sp}
		}
	}
	for _, sp := range rec.spans {
		if sp.Parent >= 0 {
			calls[sp.Parent].children = append(calls[sp.Parent].children, sp)
		}
	}
	if len(calls) < 100 {
		t.Fatalf("only %d traced calls", len(calls))
	}
	var gets, puts int
	for _, c := range calls {
		var sum int64
		for _, ch := range c.children {
			if ch.End < ch.Start || ch.Call != c.parent.Call {
				t.Fatalf("bad child span %+v of %+v", ch, c.parent)
			}
			sum += ch.End - ch.Start
		}
		if d := c.parent.End - c.parent.Start; sum != d {
			t.Fatalf("%s: children sum to %dns, call took %dns", c.parent.Name, sum, d)
		}
		rtts := (len(c.children) - 1) / 4
		switch c.parent.Name {
		case "call.get":
			gets++
			if rtts != 1 {
				t.Fatalf("get with %d round trips", rtts)
			}
		case "call.put":
			puts++
			if rtts != 2 {
				t.Fatalf("put with %d round trips", rtts)
			}
		}
	}
	var reclaims, broken int64
	for _, p := range s.pairs {
		reclaims += p.reclaims
		broken += p.broken
	}
	if broken != 0 {
		t.Fatalf("%d calls could not be matched to their round trips", broken)
	}
	if want := int64(puts) / 16; reclaims < want-2 || reclaims > want+2 {
		t.Fatalf("%d reclamation sends for %d puts", reclaims, puts)
	}
	if gets == 0 || puts == 0 {
		t.Fatalf("gets=%d puts=%d", gets, puts)
	}
}

func TestSplitCallRejectsDisorder(t *testing.T) {
	rt := roundTrip{frames: 1, replies: 1, t1: 10, t2: 20, t3: 30, t4: 40}
	comps, ok := splitCall(5, 50, []roundTrip{rt})
	if !ok || comps != [nComps]int64{5, 10, 10, 10, 10} {
		t.Fatalf("split = %v %v", comps, ok)
	}
	bad := rt
	bad.t3 = 15
	if _, ok := splitCall(5, 50, []roundTrip{bad}); ok {
		t.Fatal("out-of-order round trip accepted")
	}
	bad = rt
	bad.replies = 0
	if _, ok := splitCall(5, 50, []roundTrip{bad}); ok {
		t.Fatal("unanswered round trip accepted")
	}
}

// appendFrame frames a payload the way the transport does.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(payload)))
	dst = append(dst, kind)
	return append(dst, payload...)
}

// The scanner reads the sequence number and the reclamation marker from
// frames encoded by the wire codec, however the stream is cut.
func TestFrameScanner(t *testing.T) {
	var stream []byte
	stream = appendFrame(stream, 0x01, []byte("PRSM\x01"))
	read := wire.Request{Conn: 3, Seq: 41, Ops: []wire.Op{{Code: wire.OpRead, Len: 64}, {Code: wire.OpWrite, Data: make([]byte, 300)}}}
	stream = appendFrame(stream, frameRequest, wire.AppendRequest(nil, &read))
	send := wire.Request{Conn: 3, Seq: 42, Ops: []wire.Op{{Code: wire.OpSend, Data: []byte{1, 2, 3}}}}
	stream = appendFrame(stream, frameRequest, wire.AppendRequest(nil, &send))
	resp := wire.Response{Conn: 3, Seq: 41, Results: []wire.Result{{Status: wire.StatusOK, Data: make([]byte, 100)}}}
	stream = appendFrame(stream, frameResponse, wire.AppendResponse(nil, &resp))
	want := []frameInfo{{frameRequest, 41, false}, {frameRequest, 42, true}, {frameResponse, 41, false}}

	for _, chunk := range []int{1, 2, 7, 29, 30, 64, len(stream)} {
		var s frameScanner
		var got []frameInfo
		for b := stream; len(b) > 0; {
			n := min(chunk, len(b))
			got = s.feed(b[:n], got)
			b = b[n:]
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: got %v", chunk, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: frame %d = %+v, want %+v", chunk, i, got[i], want[i])
			}
		}
	}
}

func TestCPULayer(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "prism/internal/wire.AppendRequest", "prism/internal/transport.(*flusher).run"}, "wire"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "prism/internal/transport.(*flusher).run"}, "syscall"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.ready", "prism/internal/transport.(*Conn).complete"}, "sched"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"prism/internal/transport.(*Window[go.shape.struct { prism/internal/transport.x int }]).Prepare"}, "transport"},
		{[]string{"main.(*liveClient).read", "main.(*liveClient).run"}, "harness"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc"}, "other"},
	}
	for _, c := range cases {
		if got := cpuLayer(c.frames); got != c.want {
			t.Errorf("%v: got %s, want %s", c.frames, got, c.want)
		}
	}
}

// BENCHMARK.json lists exactly the metrics this program reports, with
// the same units and directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("workloads: %+v", spec.Workloads)
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloads[i])
		}
	}
}

// Results from different hosts, workloads, run lengths or modes are not
// comparable; different commits and seeds are.
func TestComparable(t *testing.T) {
	a := fingerprint{Host: currentHost(), Commit: "a", Workload: "live-read", Seed: 1, Seconds: 30}
	b := a
	b.Commit, b.Seed, b.SourceDigest = "b", 2, "x"
	if why := comparable(a, b); why != "" {
		t.Fatalf("same host and workload not comparable: %s", why)
	}
	for _, change := range []func(*fingerprint){
		func(f *fingerprint) { f.Host.NumCPU++ },
		func(f *fingerprint) { f.Host.GoVersion = "go0" },
		func(f *fingerprint) { f.Workload = "live-write" },
		func(f *fingerprint) { f.Seconds = 10 },
		func(f *fingerprint) { f.Trace = true },
	} {
		c := a
		change(&c)
		if comparable(a, c) == "" {
			t.Errorf("%+v and %+v marked comparable", a, c)
		}
	}
}
