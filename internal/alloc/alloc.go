// Package alloc implements PRISM's free-list buffer allocation (§3.2).
//
// A server-side process carves buffers out of a registered region and
// posts them to a free list, which the paper represents as an RDMA queue
// pair. The NIC data plane pops the head buffer to satisfy an ALLOCATE.
// Reposting a recycled buffer is only safe once every NIC operation that
// was in flight when the buffer was retired has completed; the Quiescer
// type implements that synchronization (the paper notes NICs already have
// an equivalent reader/writer mechanism for CAS processing).
package alloc

import (
	"errors"
	"fmt"

	"prism/internal/memory"
)

// ErrEmpty is returned when an ALLOCATE finds the free list empty; the NIC
// surfaces it to the client as an RNR NAK.
var ErrEmpty = errors.New("alloc: free list empty")

// FreeList is a queue of equal-sized registered buffers.
type FreeList struct {
	ID      uint32
	BufSize uint64
	Key     memory.RKey
	// queue of buffer base addresses; head at index 0.
	bufs []memory.Addr
	// pending holds buffers awaiting quiesce before repost.
	pending []memory.Addr
}

// NewFreeList returns an empty free list whose buffers live in regions
// protected by key and hold bufSize bytes each.
func NewFreeList(id uint32, bufSize uint64, key memory.RKey) *FreeList {
	if bufSize == 0 {
		panic("alloc: zero buffer size")
	}
	return &FreeList{ID: id, BufSize: bufSize, Key: key}
}

// Post appends a fresh (never used remotely) buffer to the list. For
// recycled buffers use Recycle + Quiescer instead.
func (f *FreeList) Post(addr memory.Addr) {
	f.bufs = append(f.bufs, addr)
}

// Clone returns an independent copy of the list, for a server instantiated
// from a forked memory space: buffer addresses are layout positions, so
// they remain valid in any fork of the space they were carved from.
func (f *FreeList) Clone() *FreeList {
	nf := &FreeList{ID: f.ID, BufSize: f.BufSize, Key: f.Key}
	nf.bufs = append([]memory.Addr(nil), f.bufs...)
	nf.pending = append([]memory.Addr(nil), f.pending...)
	return nf
}

// Pop removes and returns the head buffer.
func (f *FreeList) Pop() (memory.Addr, error) {
	if len(f.bufs) == 0 {
		return 0, ErrEmpty
	}
	a := f.bufs[0]
	f.bufs = f.bufs[1:]
	return a, nil
}

// Len reports the number of available buffers.
func (f *FreeList) Len() int { return len(f.bufs) }

// Tracked reports every buffer currently owned by the list: available plus
// pending-repost. Used by garbage-collection-style reclamation scans to
// tell leaked buffers from free ones.
func (f *FreeList) Tracked() map[memory.Addr]bool {
	m := make(map[memory.Addr]bool, len(f.bufs)+len(f.pending))
	for _, a := range f.bufs {
		m[a] = true
	}
	for _, a := range f.pending {
		m[a] = true
	}
	return m
}

// Pending reports buffers retired but not yet reposted.
func (f *FreeList) Pending() int { return len(f.pending) }

// Recycle records a retired buffer; it becomes available again only after
// the owning Quiescer observes that all operations concurrent with the
// retirement have drained.
func (f *FreeList) Recycle(addr memory.Addr) {
	f.pending = append(f.pending, addr)
}

// repostAll moves all pending buffers back onto the queue.
func (f *FreeList) repostAll() {
	f.bufs = append(f.bufs, f.pending...)
	f.pending = f.pending[:0]
}

// FlushWhenQuiet reposts the currently pending buffers once q observes
// that all in-flight operations have drained.
func (f *FreeList) FlushWhenQuiet(q *Quiescer) {
	n := len(f.pending)
	if n == 0 {
		return
	}
	stale := f.pending[:n:n]
	f.pending = f.pending[n:]
	q.AfterQuiesce(func() {
		f.bufs = append(f.bufs, stale...)
	})
}

// Quiescer tracks in-flight NIC operations so recycled buffers are only
// reposted once every operation that might still hold a pointer to them
// has completed (§3.2's correctness requirement for buffer reuse).
//
// It is an epoch scheme: OpStart/OpEnd bracket every NIC op. A Flush call
// stamps the current epoch; once all ops started in or before that epoch
// finish, the flush's callback runs.
//
// Op ids are issued sequentially, so the ops still tracked are exactly
// the ids in [lo, nextOp), where lo is the oldest unfinished op. A ring
// of "ended" flags, indexed by id and grown by doubling, covers that
// range: OpEnd marks its id and pops finished ids off the head, so the
// oldest in-flight op is lo, read in O(1). Queued waits sit in a second
// ring, FIFO, their barriers non-decreasing, so only the head is ever
// tested. Each op and each wait costs amortised O(1) however many are
// outstanding, and none allocates once both rings cover the working set.
type Quiescer struct {
	ended    []bool // ended[id&mask] for id in [lo, nextOp); len is a power of two
	mask     uint64
	lo       uint64
	nextOp   uint64
	inFlight int
	// waits[(whead+i)&(len(waits)-1)] for i < nwaits; len is a power
	// of two.
	waits  []quiesceWait
	whead  int
	nwaits int
}

type quiesceWait struct {
	barrier uint64 // all ops with id < barrier must finish
	fn      func()
}

// NewQuiescer returns an idle quiescer.
func NewQuiescer() *Quiescer {
	const initial = 16
	return &Quiescer{
		ended: make([]bool, initial),
		mask:  initial - 1,
		waits: make([]quiesceWait, initial),
	}
}

// OpStart registers an in-flight operation and returns its token.
func (q *Quiescer) OpStart() uint64 {
	if q.nextOp-q.lo == uint64(len(q.ended)) {
		n := make([]bool, 2*len(q.ended))
		mask := uint64(len(n) - 1)
		for id := q.lo; id < q.nextOp; id++ {
			n[id&mask] = q.ended[id&q.mask]
		}
		q.ended, q.mask = n, mask
	}
	id := q.nextOp
	q.nextOp++
	q.ended[id&q.mask] = false
	q.inFlight++
	return id
}

// OpEnd retires the operation with the given token. It panics if id was
// never started or has already ended.
func (q *Quiescer) OpEnd(id uint64) {
	if id < q.lo || id >= q.nextOp || q.ended[id&q.mask] {
		panic(fmt.Sprintf("alloc: OpEnd(%d) without matching OpStart", id))
	}
	q.ended[id&q.mask] = true
	q.inFlight--
	for q.lo < q.nextOp && q.ended[q.lo&q.mask] {
		q.lo++
	}
	q.advance()
}

// AfterQuiesce schedules fn to run once every operation currently in
// flight has completed. Operations starting later do not delay fn.
func (q *Quiescer) AfterQuiesce(fn func()) {
	if q.nwaits == len(q.waits) {
		n := make([]quiesceWait, 2*len(q.waits))
		for i := 0; i < q.nwaits; i++ {
			n[i] = q.waits[(q.whead+i)&(len(q.waits)-1)]
		}
		q.waits, q.whead = n, 0
	}
	q.waits[(q.whead+q.nwaits)&(len(q.waits)-1)] = quiesceWait{barrier: q.nextOp, fn: fn}
	q.nwaits++
	q.advance()
}

// InFlight reports the number of outstanding operations.
func (q *Quiescer) InFlight() int { return q.inFlight }

// advance runs, in order, every queued wait whose barrier the oldest
// in-flight op has passed. A callback may itself start, end, or queue.
func (q *Quiescer) advance() {
	for q.nwaits > 0 {
		w := &q.waits[q.whead]
		if q.lo < w.barrier {
			return
		}
		fn := w.fn
		*w = quiesceWait{}
		q.whead = (q.whead + 1) & (len(q.waits) - 1)
		q.nwaits--
		fn()
	}
}

// SizeClasses returns power-of-two buffer sizes covering [minSize, maxSize]
// (§3.2: powers of two bound space overhead at 2x).
func SizeClasses(minSize, maxSize uint64) []uint64 {
	if minSize == 0 || maxSize < minSize {
		panic("alloc: bad size class range")
	}
	var out []uint64
	s := uint64(1)
	for s < minSize {
		s <<= 1
	}
	for ; s < maxSize; s <<= 1 {
		out = append(out, s)
	}
	out = append(out, s)
	return out
}

// ClassFor returns the index of the smallest class in classes (ascending)
// that fits n bytes.
func ClassFor(classes []uint64, n uint64) (int, error) {
	for i, c := range classes {
		if n <= c {
			return i, nil
		}
	}
	return 0, fmt.Errorf("alloc: %d bytes exceeds largest class %d", n, classes[len(classes)-1])
}
