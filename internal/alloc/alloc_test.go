package alloc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"prism/internal/memory"
)

func TestFreeListFIFO(t *testing.T) {
	f := NewFreeList(1, 512, 7)
	for _, a := range []memory.Addr{0x1000, 0x2000, 0x3000} {
		f.Post(a)
	}
	for _, want := range []memory.Addr{0x1000, 0x2000, 0x3000} {
		got, err := f.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("popped %#x, want %#x", got, want)
		}
	}
	if _, err := f.Pop(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty pop: %v", err)
	}
}

func TestRecycleNotImmediatelyAvailable(t *testing.T) {
	f := NewFreeList(1, 512, 7)
	f.Recycle(0x1000)
	if f.Len() != 0 {
		t.Fatal("recycled buffer available before quiesce")
	}
	if f.Pending() != 1 {
		t.Fatalf("pending = %d", f.Pending())
	}
	f.repostAll()
	if f.Len() != 1 {
		t.Fatal("repostAll did not post")
	}
}

func TestQuiescerImmediateWhenIdle(t *testing.T) {
	q := NewQuiescer()
	ran := false
	q.AfterQuiesce(func() { ran = true })
	if !ran {
		t.Fatal("idle quiescer delayed flush")
	}
}

func TestQuiescerWaitsForInFlight(t *testing.T) {
	q := NewQuiescer()
	a := q.OpStart()
	b := q.OpStart()
	ran := false
	q.AfterQuiesce(func() { ran = true })

	// A later op must not delay the flush.
	c := q.OpStart()

	q.OpEnd(a)
	if ran {
		t.Fatal("flush ran with op b still in flight")
	}
	q.OpEnd(b)
	if !ran {
		t.Fatal("flush did not run after pre-flush ops drained")
	}
	q.OpEnd(c)
}

func TestQuiescerLaterOpDoesNotBlock(t *testing.T) {
	q := NewQuiescer()
	a := q.OpStart()
	ran := false
	q.AfterQuiesce(func() { ran = true })
	q.OpStart() // never ends
	q.OpEnd(a)
	if !ran {
		t.Fatal("flush blocked by op that started after it")
	}
}

func TestQuiescerMultipleWaitsOrdered(t *testing.T) {
	q := NewQuiescer()
	a := q.OpStart()
	var order []int
	q.AfterQuiesce(func() { order = append(order, 1) })
	b := q.OpStart()
	q.AfterQuiesce(func() { order = append(order, 2) })
	q.OpEnd(a)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("after first drain: %v", order)
	}
	q.OpEnd(b)
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("after second drain: %v", order)
	}
}

func TestQuiescerDoubleEndPanics(t *testing.T) {
	q := NewQuiescer()
	id := q.OpStart()
	q.OpEnd(id)
	defer func() {
		if recover() == nil {
			t.Fatal("double OpEnd did not panic")
		}
	}()
	q.OpEnd(id)
}

func TestSizeClasses(t *testing.T) {
	cs := SizeClasses(64, 4096)
	want := []uint64{64, 128, 256, 512, 1024, 2048, 4096}
	if len(cs) != len(want) {
		t.Fatalf("classes %v", cs)
	}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("classes %v, want %v", cs, want)
		}
	}
	// Non-power-of-two bounds round sensibly.
	cs = SizeClasses(100, 1000)
	want = []uint64{128, 256, 512, 1024}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("classes %v, want %v", cs, want)
		}
	}
}

func TestClassFor(t *testing.T) {
	cs := SizeClasses(64, 4096)
	for _, tc := range []struct {
		n    uint64
		want uint64
	}{{1, 64}, {64, 64}, {65, 128}, {512, 512}, {513, 1024}, {4096, 4096}} {
		i, err := ClassFor(cs, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if cs[i] != tc.want {
			t.Fatalf("ClassFor(%d) -> %d, want %d", tc.n, cs[i], tc.want)
		}
	}
	if _, err := ClassFor(cs, 4097); err == nil {
		t.Fatal("oversized request accepted")
	}
}

// Property: power-of-two classing wastes less than 2x space.
func TestQuickSizeClassOverheadBound(t *testing.T) {
	cs := SizeClasses(1, 1<<20)
	f := func(n uint32) bool {
		sz := uint64(n)%(1<<20) + 1
		i, err := ClassFor(cs, sz)
		if err != nil {
			return false
		}
		return cs[i] >= sz && cs[i] < 2*sz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the quiescer never runs a flush while an older op is in
// flight, and always runs it once those drain — modeled against a naive
// reference implementation over a random schedule.
func TestQuickQuiescerSafety(t *testing.T) {
	f := func(script []byte) bool {
		q := NewQuiescer()
		type flush struct {
			horizon uint64 // ids below this started before the flush
			ran     *bool
		}
		var live []uint64
		var nextID uint64
		var flushes []flush
		for _, b := range script {
			switch b % 3 {
			case 0:
				live = append(live, q.OpStart())
				nextID++
			case 1:
				if len(live) > 0 {
					i := int(b/3) % len(live)
					q.OpEnd(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 2:
				ran := new(bool)
				q.AfterQuiesce(func() { *ran = true })
				flushes = append(flushes, flush{horizon: nextID, ran: ran})
			}
			// Invariant: a flush has run iff no op live at flush time is
			// still live. An op is "live at flush time" exactly when its id
			// is >= the smallest live id recorded then and it started
			// before the flush — since ids are issued in order, checking
			// ids below the flush's OpStart horizon suffices; the recorded
			// barrier is the min live id at flush time, so any still-live
			// op with id >= barrier that predates the flush blocks it.
			for _, fl := range flushes {
				blocked := false
				for _, id := range live {
					if id < fl.horizon {
						blocked = true
					}
				}
				if blocked && *fl.ran {
					return false // ran too early
				}
				if !blocked && !*fl.ran {
					return false // never ran after drain
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

// mapQuiescer is the map-scan quiescer the ended-flag ring replaced,
// kept as the reference model: in-flight ids in a map, the oldest found
// by ranging over it whenever a wait is queued.
type mapQuiescer struct {
	inFlight map[uint64]struct{}
	nextOp   uint64
	waits    []quiesceWait
}

func (q *mapQuiescer) OpStart() uint64 {
	id := q.nextOp
	q.nextOp++
	q.inFlight[id] = struct{}{}
	return id
}

func (q *mapQuiescer) OpEnd(id uint64) {
	delete(q.inFlight, id)
	q.advance()
}

func (q *mapQuiescer) AfterQuiesce(fn func()) {
	q.waits = append(q.waits, quiesceWait{barrier: q.nextOp, fn: fn})
	q.advance()
}

func (q *mapQuiescer) advance() {
	for len(q.waits) > 0 {
		w := q.waits[0]
		min := q.nextOp
		for id := range q.inFlight {
			if id < min {
				min = id
			}
		}
		if min < w.barrier {
			return
		}
		q.waits = q.waits[1:]
		w.fn()
	}
}

// quiescerAPI is what the co-simulation drives on both implementations.
type quiescerAPI interface {
	OpStart() uint64
	OpEnd(uint64)
	AfterQuiesce(func())
}

// TestQuiescerMatchesMapReference co-simulates the ring Quiescer against
// the map-scan reference: phases that build up 1000+ outstanding ops,
// then out-of-order OpEnds, with AfterQuiesce calls interleaved — some
// from inside a firing callback. Every callback must fire in the same
// order and at the same step on both, and InFlight must agree.
func TestQuiescerMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQuiescer()
		ref := &mapQuiescer{inFlight: make(map[uint64]struct{})}
		var got, want []string
		step := 0
		var wait func(api quiescerAPI, log *[]string, name string, nested bool) func()
		wait = func(api quiescerAPI, log *[]string, name string, nested bool) func() {
			return func() {
				*log = append(*log, fmt.Sprintf("%s@%d", name, step))
				if nested {
					api.AfterQuiesce(wait(api, log, name+"'", false))
				}
			}
		}
		var live []uint64
		peak, waits := 0, 0
		for phase := 0; phase < 6; phase++ {
			// Even phases mostly start ops, odd phases mostly end them.
			startP := 80
			if phase%2 == 1 {
				startP = 20
			}
			for i := 0; i < 3000; i++ {
				step++
				switch r := rng.Intn(100); {
				case r < 5:
					name, nested := fmt.Sprintf("w%d", waits), rng.Intn(4) == 0
					waits++
					q.AfterQuiesce(wait(q, &got, name, nested))
					ref.AfterQuiesce(wait(ref, &want, name, nested))
				case r < 5+startP*95/100:
					a, b := q.OpStart(), ref.OpStart()
					if a != b {
						t.Fatalf("seed %d: OpStart ids %d vs %d", seed, a, b)
					}
					live = append(live, a)
				default:
					if len(live) == 0 {
						continue
					}
					j := rng.Intn(len(live))
					id := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					q.OpEnd(id)
					ref.OpEnd(id)
				}
				if q.InFlight() != len(ref.inFlight) {
					t.Fatalf("seed %d step %d: InFlight %d, want %d", seed, step, q.InFlight(), len(ref.inFlight))
				}
				peak = max(peak, len(live))
			}
		}
		for _, id := range live {
			step++
			q.OpEnd(id)
			ref.OpEnd(id)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: callbacks diverged:\n got %v\nwant %v", seed, got, want)
		}
		if peak < 1000 || len(want) < waits {
			t.Fatalf("seed %d: peak %d outstanding, %d callbacks for %d waits", seed, peak, len(want), waits)
		}
	}
}

func TestQuiescerBadOpEndPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(q *Quiescer)
	}{
		{"never started", func(q *Quiescer) { q.OpEnd(q.OpStart() + 1) }},
		{"ended and retired below the oldest", func(q *Quiescer) {
			a := q.OpStart()
			q.OpStart()
			q.OpEnd(a)
			q.OpEnd(a)
		}},
		{"ended while an older op is in flight", func(q *Quiescer) {
			q.OpStart()
			b := q.OpStart()
			q.OpEnd(b)
			q.OpEnd(b)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("bad OpEnd did not panic")
				}
			}()
			tc.end(NewQuiescer())
		})
	}
}

// churnQuiescer replaces a pseudo-random one of the outstanding ops with
// a fresh one per step, queueing a no-op wait every 8th step: ops end out
// of order and waits stay queued behind long-lived ops.
func churnQuiescer(q *Quiescer, toks []uint64, x *uint64, i int, fn func()) {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	k := *x % uint64(len(toks))
	q.OpEnd(toks[k])
	toks[k] = q.OpStart()
	if i%8 == 0 {
		q.AfterQuiesce(fn)
	}
}

func newChurn(outstanding int) (*Quiescer, []uint64) {
	q := NewQuiescer()
	toks := make([]uint64, outstanding)
	for i := range toks {
		toks[i] = q.OpStart()
	}
	return q, toks
}

// TestQuiescerSteadyAllocs guards the per-op cost: once the op ring and
// the wait ring have grown to the working set, a steady OpStart/OpEnd
// cycle with 256 ops outstanding and waits queued allocates nothing. The
// whole 100k-op stretch is one AllocsPerRun run, so a rare growth step
// cannot round away.
func TestQuiescerSteadyAllocs(t *testing.T) {
	q, toks := newChurn(256)
	x := uint64(88172645463325252)
	fn := func() {}
	churn := func() {
		for i := 0; i < 100000; i++ {
			churnQuiescer(q, toks, &x, i, fn)
		}
	}
	churn()
	if n := testing.AllocsPerRun(1, churn); n != 0 {
		t.Fatalf("100k OpStart/OpEnd cycles allocate %.0f times, want 0", n)
	}
}

// BenchmarkQuiescer runs the churn with 256 ops outstanding: one OpEnd,
// one OpStart and, every 8th op, an AfterQuiesce per iteration.
func BenchmarkQuiescer(b *testing.B) {
	q, toks := newChurn(256)
	x := uint64(88172645463325252)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churnQuiescer(q, toks, &x, i, fn)
	}
}
