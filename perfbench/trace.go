package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"sync"
	"time"

	"prism/internal/wire"
)

// Tracing, from outside the program. Spans are recorded by the
// benchmark's own code: around each call into a layer, and inside the
// net.Conn / net.Listener wrappers handed to transport.NewClientConn and
// transport.Server.Serve. Spans stay in memory and are written out when
// the run ends.

// span is one timed interval. Times are nanoseconds since the
// recorder's epoch; Parent indexes the recorder's span list (-1 for a
// root), and every span of one call shares its Call id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Call   int64  `json:"call"`
}

// spanRecorder keeps spans in memory up to a fixed count; later spans
// are counted but not kept, so a long traced run cannot exhaust memory.
type spanRecorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int64
}

func newSpanRecorder(limit int) *spanRecorder {
	return &spanRecorder{epoch: time.Now(), limit: limit}
}

// now is the recorder's clock: monotonic nanoseconds since its epoch.
func (r *spanRecorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records s and returns its index, or -1 when the recorder is full.
func (r *spanRecorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// writeFile writes the kept spans as JSON lines.
func (r *spanRecorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Frame kinds of the transport's stream framing (u32 LE length | u8
// kind | payload), and the fixed-offset header fields of request and
// response payloads (internal/wire: conn u64 | seq u64 | epoch u32 |
// count u32 | first op code u8 ...), which is all the tracer reads.
const (
	frameRequest  = 0x05
	frameResponse = 0x06

	framePrefix     = 5                 // length + kind
	seqOffset       = framePrefix + 8   // after conn
	countOffset     = framePrefix + 20  // after conn, seq, epoch
	requestHeader   = framePrefix + 25  // through the first op code
	responseHeader  = framePrefix + 24  // through the result count
	maxScannedFrame = requestHeader + 1 // header scratch size
)

// frameInfo is what the scanner reports for one request/response frame.
type frameInfo struct {
	kind  byte
	seq   uint64
	async bool // a single-op SEND request (the kv reclamation batch)
}

// frameScanner follows one direction of a socket's byte stream across
// arbitrary read/write boundaries and reports each frame's header.
type frameScanner struct {
	hdr    [maxScannedFrame]byte
	have   int // header bytes gathered for the current frame
	skip   int // bytes of the current frame still to pass over
	broken bool
}

func (s *frameScanner) want() int {
	if s.have < framePrefix {
		return framePrefix
	}
	switch s.hdr[4] {
	case frameRequest:
		return requestHeader
	case frameResponse:
		return responseHeader
	}
	return framePrefix
}

// feed consumes b and appends a frameInfo per completed request or
// response header to out.
func (s *frameScanner) feed(b []byte, out []frameInfo) []frameInfo {
	for len(b) > 0 && !s.broken {
		if s.skip > 0 {
			n := min(s.skip, len(b))
			s.skip -= n
			b = b[n:]
			continue
		}
		want := s.want()
		n := copy(s.hdr[s.have:want], b)
		s.have += n
		b = b[n:]
		if s.have < want || s.want() > want {
			continue // more header bytes to gather
		}
		total := 4 + int(binary.LittleEndian.Uint32(s.hdr[:4]))
		if total < s.have {
			s.broken = true // a frame shorter than its header: stop tracking
			break
		}
		s.skip = total - s.have
		s.have = 0
		switch kind := s.hdr[4]; kind {
		case frameRequest, frameResponse:
			f := frameInfo{kind: kind, seq: binary.LittleEndian.Uint64(s.hdr[seqOffset:])}
			if kind == frameRequest {
				f.async = binary.LittleEndian.Uint32(s.hdr[countOffset:]) == 1 &&
					s.hdr[countOffset+4] == byte(wire.OpSend)
			}
			out = append(out, f)
		}
	}
	return out
}

// callKind is the kind of a traced client call.
type callKind int

const (
	callGet callKind = iota
	callPut
	nCallKinds
)

var callKindNames = [nCallKinds]string{"get", "put"}

// Per-call components: the call's time, split at the round trips'
// socket boundaries, summed over its round trips.
const (
	compStage    = iota // call start or previous reply → client Write starts
	compC2S             // client Write starts → server Read returns
	compHandle          // server Read returns → server Write starts
	compS2C             // server Write starts → client Read returns
	compComplete        // last client Read returns → call returns
	nComps
)

var compNames = [nComps]string{"client.stage", "kernel.c2s", "server.handle", "kernel.s2c", "client.complete"}

// roundTrip is one synchronous round trip of a call: the request frames
// with seqs first..last, written back to back while none was pending.
type roundTrip struct {
	first, last     uint64
	frames, replies int
	t1, t2, t3, t4  int64 // client write, server read, server write, client read
}

// pairTracer follows one client socket and its server-side peer. The
// benchmark issues at most one call at a time on the socket, so every
// request frame written while a call is open belongs to that call —
// except single-op SENDs, the fire-and-forget reclamation batches, which
// are counted apart and whose late replies are kept out of whichever
// call they overlap.
type pairTracer struct {
	rec *spanRecorder
	id  int64

	mu             sync.Mutex
	cw, cr, sr, sw frameScanner // client write/read, server read/write
	scratch        []frameInfo
	async          []uint64 // seqs of reclamation SENDs awaiting replies

	open     bool
	kind     callKind
	start    int64
	rts      []roundTrip
	pending  int
	calls    int64
	keepUpTo int64 // calls whose spans are kept

	measuring bool // counting reclamations
	reclaims  int64
	comps     [nCallKinds][nComps]latHist
	rtts      [nCallKinds]int64
	counted   [nCallKinds]int64
	broken    int64 // calls whose round trips could not be matched
}

func newPairTracer(rec *spanRecorder, id int64, keepCalls int64) *pairTracer {
	return &pairTracer{rec: rec, id: id, keepUpTo: keepCalls}
}

func (p *pairTracer) findRT(seq uint64) *roundTrip {
	for i := range p.rts {
		if rt := &p.rts[i]; seq >= rt.first && seq <= rt.last {
			return rt
		}
	}
	return nil
}

// clientWrite runs just before the client's Write syscall; the time it
// takes after parsing is the round trip's write start.
func (p *pairTracer) clientWrite(b []byte) {
	p.mu.Lock()
	fs := p.cw.feed(b, p.scratch[:0])
	now := p.rec.now()
	for _, f := range fs {
		if f.kind != frameRequest {
			continue
		}
		if f.async {
			p.async = append(p.async, f.seq)
			if p.measuring {
				p.reclaims++
			}
			continue
		}
		if !p.open {
			continue
		}
		if p.pending == 0 {
			p.rts = append(p.rts, roundTrip{first: f.seq, t1: now})
		}
		rt := &p.rts[len(p.rts)-1]
		rt.last = f.seq
		rt.frames++
		p.pending++
	}
	p.scratch = fs[:0]
	p.mu.Unlock()
}

// serverRead runs after the server's Read syscall returned b.
func (p *pairTracer) serverRead(b []byte) {
	now := p.rec.now()
	p.mu.Lock()
	fs := p.sr.feed(b, p.scratch[:0])
	for _, f := range fs {
		if f.kind == frameRequest && !f.async && p.open {
			if rt := p.findRT(f.seq); rt != nil && rt.t2 == 0 {
				rt.t2 = now
			}
		}
	}
	p.scratch = fs[:0]
	p.mu.Unlock()
}

// serverWrite runs before the server's Write syscall.
func (p *pairTracer) serverWrite(b []byte) {
	p.mu.Lock()
	fs := p.sw.feed(b, p.scratch[:0])
	now := p.rec.now()
	for _, f := range fs {
		if f.kind == frameResponse && p.open {
			if rt := p.findRT(f.seq); rt != nil {
				rt.t3 = now
			}
		}
	}
	p.scratch = fs[:0]
	p.mu.Unlock()
}

// clientRead runs after the client's Read syscall returned b.
func (p *pairTracer) clientRead(b []byte) {
	now := p.rec.now()
	p.mu.Lock()
	fs := p.cr.feed(b, p.scratch[:0])
	for _, f := range fs {
		if f.kind != frameResponse {
			continue
		}
		if p.dropAsync(f.seq) {
			continue
		}
		if !p.open {
			continue
		}
		if rt := p.findRT(f.seq); rt != nil {
			rt.t4 = now
			rt.replies++
			p.pending--
		}
	}
	p.scratch = fs[:0]
	p.mu.Unlock()
}

func (p *pairTracer) dropAsync(seq uint64) bool {
	for i, s := range p.async {
		if s == seq {
			p.async = append(p.async[:i], p.async[i+1:]...)
			return true
		}
	}
	return false
}

// setMeasuring turns reclamation counting on or off.
func (p *pairTracer) setMeasuring(on bool) {
	p.mu.Lock()
	p.measuring = on
	p.mu.Unlock()
}

// begin opens a call at start (recorder time).
func (p *pairTracer) begin(kind callKind, start int64) {
	p.mu.Lock()
	p.open, p.kind, p.start = true, kind, start
	p.rts = p.rts[:0]
	p.pending = 0
	p.mu.Unlock()
}

// end closes the open call at end: its round trips become the call's
// component sums and, for the first calls, kept spans.
func (p *pairTracer) end(end int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.open = false
	comps, ok := splitCall(p.start, end, p.rts)
	if !ok {
		p.broken++
		return
	}
	k := p.kind
	for c := range comps {
		p.comps[k][c].record(comps[c])
	}
	p.rtts[k] += int64(len(p.rts))
	p.counted[k]++
	p.calls++
	if p.calls <= p.keepUpTo {
		p.keepSpans(end)
	}
}

// splitCall sums a call's time per component over its round trips. The
// components tile [start, end] exactly, so they sum to the call's
// duration; ok is false when a round trip is incomplete or out of order.
func splitCall(start, end int64, rts []roundTrip) (comps [nComps]int64, ok bool) {
	prev := start
	for _, rt := range rts {
		if rt.replies != rt.frames || !(prev <= rt.t1 && rt.t1 <= rt.t2 && rt.t2 <= rt.t3 && rt.t3 <= rt.t4) {
			return comps, false
		}
		comps[compStage] += rt.t1 - prev
		comps[compC2S] += rt.t2 - rt.t1
		comps[compHandle] += rt.t3 - rt.t2
		comps[compS2C] += rt.t4 - rt.t3
		prev = rt.t4
	}
	if end < prev {
		return comps, false
	}
	comps[compComplete] = end - prev
	return comps, true
}

func (p *pairTracer) keepSpans(end int64) {
	call := p.id<<40 | p.calls
	parent := p.rec.add(span{Name: "call." + callKindNames[p.kind], Start: p.start, End: end, Parent: -1, Call: call})
	if parent < 0 {
		return
	}
	prev := p.start
	for _, rt := range p.rts {
		for c, iv := range [4][2]int64{{prev, rt.t1}, {rt.t1, rt.t2}, {rt.t2, rt.t3}, {rt.t3, rt.t4}} {
			p.rec.add(span{Name: compNames[c], Start: iv[0], End: iv[1], Parent: parent, Call: call})
		}
		prev = rt.t4
	}
	p.rec.add(span{Name: compNames[compComplete], Start: prev, End: end, Parent: parent, Call: call})
}

// Conn wrappers. They embed the socket, so deadlines and addresses pass
// through unchanged, and only observe the bytes of Read and Write.

type clientConn struct {
	net.Conn
	p *pairTracer
}

func (c *clientConn) Write(b []byte) (int, error) {
	c.p.clientWrite(b)
	return c.Conn.Write(b)
}

func (c *clientConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.p.clientRead(b[:n])
	}
	return n, err
}

type serverConn struct {
	net.Conn
	p *pairTracer
}

func (c *serverConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.p.serverRead(b[:n])
	}
	return n, err
}

func (c *serverConn) Write(b []byte) (int, error) {
	c.p.serverWrite(b)
	return c.Conn.Write(b)
}

// tracedListener hands the i-th accepted socket the i-th pair tracer.
// Clients dial one at a time and each dial completes its handshake
// before the next, so accept order is client order.
type tracedListener struct {
	net.Listener
	mu    sync.Mutex
	pairs []*pairTracer
	next  int
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next >= len(l.pairs) {
		return nc, nil // an unexpected extra socket is served untraced
	}
	p := l.pairs[l.next]
	l.next++
	return &serverConn{Conn: nc, p: p}, nil
}
