package transport

import (
	"math/rand"
	"slices"
	"testing"

	"prism/internal/wire"
)

// mapWindow is the map-scan send window the seq ring replaced, kept as
// the reference model: pending entries in a map keyed by seq, Drain
// scanning it for the oldest pending seq before each transmit. Drop
// visits pending entries in seq order (the original ranged over the
// map, so its order was unspecified).
type mapWindow struct {
	depth    uint64
	pending  map[uint64]*Entry[int]
	queue    []*Entry[int]
	transmit func(*Entry[int])
}

func (m *mapWindow) enqueue(e *Entry[int]) {
	m.queue = append(m.queue, e)
	m.drain()
}

func (m *mapWindow) drain() {
	for len(m.queue) > 0 {
		e := m.queue[0]
		if len(m.pending) > 0 {
			min := ^uint64(0)
			for s := range m.pending {
				if s < min {
					min = s
				}
			}
			if e.Req.Seq >= min+m.depth {
				return
			}
		}
		m.queue = m.queue[1:]
		m.pending[e.Req.Seq] = e
		m.transmit(e)
	}
}

func (m *mapWindow) take(seq uint64) *Entry[int] {
	e, ok := m.pending[seq]
	if !ok {
		return nil
	}
	delete(m.pending, seq)
	return e
}

func (m *mapWindow) drop(visit func(*Entry[int])) {
	seqs := make([]uint64, 0, len(m.pending))
	for s := range m.pending {
		seqs = append(seqs, s)
	}
	slices.Sort(seqs)
	for _, s := range seqs {
		visit(m.pending[s])
		delete(m.pending, s)
	}
	for _, e := range m.queue {
		visit(e)
	}
	m.queue = nil
}

// TestWindowMatchesMapReference co-simulates the seq-ring Window against
// the map-scan reference over seeded random schedules of issues,
// out-of-order, duplicate and stale (seq ± depth) takes, recycles and
// drops, requiring the same transmit order, the same Take results and
// the same in-flight count after every step.
func TestWindowMatchesMapReference(t *testing.T) {
	for _, depth := range []uint64{8, 64} {
		for seed := int64(1); seed <= 20; seed++ {
			coSimWindow(t, depth, seed, 4000)
		}
	}
}

func coSimWindow(t *testing.T, depth uint64, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var gotTx, wantTx []uint64
	w := NewWindow[int](7, depth, func(e *Entry[int]) { gotTx = append(gotTx, e.Req.Seq) })
	ref := &mapWindow{
		depth:    depth,
		pending:  make(map[uint64]*Entry[int]),
		transmit: func(e *Entry[int]) { wantTx = append(wantTx, e.Req.Seq) },
	}
	var taken []*Entry[int] // taken, awaiting Recycle
	var retired []uint64    // seqs already taken (duplicate-take candidates)
	issueP := 40            // percent of steps that issue; re-drawn in phases
	full := 0               // steps ending with the window full and requests queued
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("depth %d seed %d step %d: "+format, append([]any{depth, seed, step}, args...)...)
	}
	for step := 0; step < steps; step++ {
		if step%250 == 0 {
			issueP = 25 + rng.Intn(40)
		}
		r := rng.Intn(100)
		if rng.Intn(500) == 0 {
			r = -1
		}
		switch {
		case r < 0: // drop everything pending and queued
			var got, want []*Entry[int]
			w.Drop(func(e *Entry[int]) { got = append(got, e) })
			ref.drop(func(e *Entry[int]) { want = append(want, e) })
			if !slices.Equal(got, want) {
				fail(step, "Drop visited %d entries, want %d in seq order", len(got), len(want))
			}
		case r < issueP: // issue, half of the time into window-owned scratch
			var ops []wire.Op
			if rng.Intn(2) == 0 {
				ops = w.Ops(1 + rng.Intn(3))
			} else {
				ops = make([]wire.Op, 1+rng.Intn(3))
			}
			e := w.Prepare(ops)
			w.Enqueue(e)
			ref.enqueue(e)
		case r < 70: // out-of-order take of a pending seq
			if len(ref.pending) == 0 {
				continue
			}
			seqs := make([]uint64, 0, len(ref.pending))
			for s := range ref.pending {
				seqs = append(seqs, s)
			}
			slices.Sort(seqs)
			s := seqs[rng.Intn(len(seqs))]
			got, want := w.Take(s), ref.take(s)
			if got != want || got == nil {
				fail(step, "Take(%d) = %p, want %p", s, got, want)
			}
			taken = append(taken, got)
			retired = append(retired, s)
			w.Drain()
			ref.drain()
		case r < 80: // duplicate or stale take: seq s, s+depth or s-depth
			if len(retired) == 0 {
				continue
			}
			s := retired[rng.Intn(len(retired))]
			switch rng.Intn(3) {
			case 1:
				s += depth
			case 2:
				if s >= depth {
					s -= depth
				}
			}
			if got, want := w.Take(s), ref.take(s); got != want {
				fail(step, "stale Take(%d) = %p, want %p", s, got, want)
			}
		default: // recycle a taken entry
			if len(taken) == 0 {
				continue
			}
			i := rng.Intn(len(taken))
			w.Recycle(taken[i])
			taken = slices.Delete(taken, i, i+1)
		}
		if !slices.Equal(gotTx, wantTx) {
			fail(step, "transmit order diverged: %d vs %d transmits", len(gotTx), len(wantTx))
		}
		if got, want := w.InFlight(), len(ref.pending); got != want {
			fail(step, "InFlight = %d, want %d", got, want)
		}
		if len(ref.queue) > 0 {
			full++
		}
	}
	if len(gotTx) < steps/5 || full == 0 {
		t.Fatalf("depth %d seed %d: %d transmits, window full on %d steps", depth, seed, len(gotTx), full)
	}
}

// TestWindowEnqueueOutOfOrderPanics pins the invariant the seq ring rests
// on: entries reach Enqueue in the order Prepare stamped them, once each.
func TestWindowEnqueueOutOfOrderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	w := NewWindow[int](1, 8, func(*Entry[int]) {})
	w.Prepare(make([]wire.Op, 1))
	b := w.Prepare(make([]wire.Op, 1))
	mustPanic("enqueue ahead of an unenqueued prepare", func() { w.Enqueue(b) })

	w = NewWindow[int](1, 8, func(*Entry[int]) {})
	a := w.Prepare(make([]wire.Op, 1))
	w.Enqueue(a)
	mustPanic("second enqueue of one entry", func() { w.Enqueue(a) })
}

// issueTrain issues an n-chain train into w and completes it in issue
// order, the way a live GetBatch doorbell train runs.
func issueTrain(w *Window[int], train []*Entry[int]) {
	for i := range train {
		ops := w.Ops(1)
		ops[0].Code = wire.OpRead
		train[i] = w.Prepare(ops)
		w.Enqueue(train[i])
	}
	for _, e := range train {
		if w.Take(e.Req.Seq) != e {
			panic("train entry not pending")
		}
		w.Recycle(e)
		w.Drain()
	}
}

// TestWindowTrainAllocs guards the issue path: once warmed, a 16-chain
// enqueue-then-take train on a live-depth window allocates nothing.
func TestWindowTrainAllocs(t *testing.T) {
	w := NewWindow[int](1, liveWindowDepth, func(*Entry[int]) {})
	train := make([]*Entry[int], 16)
	issueTrain(w, train)
	if avg := testing.AllocsPerRun(1000, func() { issueTrain(w, train) }); avg != 0 {
		t.Fatalf("16-chain train allocates %.2f/run, want 0", avg)
	}
	if w.InFlight() != 0 {
		t.Fatalf("InFlight = %d after the train completed", w.InFlight())
	}
}

// BenchmarkWindowTrain issues and completes one 16-chain train per
// iteration on a live-depth window.
func BenchmarkWindowTrain(b *testing.B) {
	w := NewWindow[int](1, liveWindowDepth, func(*Entry[int]) {})
	train := make([]*Entry[int], 16)
	issueTrain(w, train)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		issueTrain(w, train)
	}
}
