package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/kv"
	"prism/internal/transport"
)

// The live workloads drive an in-process transport.Server provisioned
// with kv.NewServerOn over a unix socket, through one kv.LiveClient per
// client socket. Load is closed-loop: each of runtime.NumCPU() clients
// owns one socket and one logical connection and waits for each reply
// before its next call, as PRISM's protocol callers do.

// liveSpec is one live workload.
type liveSpec struct {
	valueSize int
	readFrac  float64  // share of calls that read
	train     int      // keys per read call: >1 is one GetBatch doorbell train
	primary   callKind // the call the end-to-end latency metrics report
}

var liveSpecs = map[string]liveSpec{
	"live-read":  {valueSize: 64, readFrac: 0.95, train: 16, primary: callGet},
	"live-write": {valueSize: 1024, readFrac: 0.5, train: 1, primary: callPut},
}

// liveKeys are preloaded before measuring, so a GET miss is a failure.
const liveKeys = 65536

// liveSetups is how many times an untraced run provisions the live
// stack; setup_s is the median.
const liveSetups = 7

// liveSession is one provisioned server with its connected clients.
type liveSession struct {
	spec    liveSpec
	sock    string
	srv     *transport.Server
	serveCh chan error
	clients []*liveClient
	pairs   []*pairTracer // nil when untraced
	rec     *spanRecorder // clock for traced calls; nil when untraced
	epoch   time.Time     // clock base for untraced calls

	// Per key: the newest version a PUT was issued for, and the newest
	// version acknowledged. A read that starts after version a was
	// acknowledged and ends before version i+1 is issued must return a
	// version in [a, i]. Each key has one writer: client key%clients.
	issued, acked []atomic.Uint32
}

// newLiveSession provisions the store, preloads every key at version 0,
// serves it on sock, and connects nClients clients. With rec non-nil
// every socket end is wrapped by a pair tracer.
func newLiveSession(spec liveSpec, sock string, nClients int, rec *spanRecorder, keepCalls int64) (s *liveSession, err error) {
	s = &liveSession{
		spec:   spec,
		sock:   sock,
		srv:    transport.NewServer(),
		rec:    rec,
		epoch:  time.Now(),
		issued: make([]atomic.Uint32, liveKeys),
		acked:  make([]atomic.Uint32, liveKeys),
	}
	opts := kv.DefaultOptions(liveKeys, spec.valueSize)
	opts.MinClass = objectClass(spec.valueSize)
	store, err := kv.NewServerOn(s.srv, opts)
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	val := make([]byte, spec.valueSize)
	for k := int64(0); k < liveKeys; k++ {
		fillValue(val, k, 0)
		if err := store.Load(k, val); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	os.Remove(sock) // a stale socket file from an interrupted run
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	var ln net.Listener = l
	if rec != nil {
		for i := 0; i < nClients; i++ {
			s.pairs = append(s.pairs, newPairTracer(rec, int64(i), keepCalls))
		}
		ln = &tracedListener{Listener: l, pairs: s.pairs}
	}
	s.serveCh = make(chan error, 1)
	go func() { s.serveCh <- s.srv.Serve(ln) }()
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	for i := 0; i < nClients; i++ {
		nc, err := net.Dial("unix", sock)
		if err != nil {
			return s, err
		}
		if rec != nil {
			nc = &clientConn{Conn: nc, p: s.pairs[i]}
		}
		tc, err := transport.NewClientConn(nc)
		if err != nil {
			return s, fmt.Errorf("client %d handshake: %w", i, err)
		}
		c := &liveClient{id: i, tc: tc, s: s}
		s.clients = append(s.clients, c)
		conn, err := tc.Connect()
		if err != nil {
			return s, fmt.Errorf("client %d connect: %w", i, err)
		}
		meta, err := kv.FetchMeta(conn)
		if err != nil {
			return s, fmt.Errorf("client %d meta: %w", i, err)
		}
		c.lc = kv.NewLiveClient(conn, meta, uint16(i+1))
		if len(s.pairs) > 0 {
			c.tr = s.pairs[i]
		}
		c.prepare()
	}
	return s, nil
}

// objectClass is the buffer size class of a stored object (the value
// behind a 16-byte key header). Provisioning from it up leaves out the
// smaller classes no object of the workload uses: the datapath is the
// same, and set-up does not zero memory nothing touches.
func objectClass(valueSize int) uint64 {
	c := uint64(64)
	for c < uint64(valueSize)+16 {
		c <<= 1
	}
	return c
}

// close disconnects the clients, drains the server and waits for it.
// The server's socket counters are final once close returns.
func (s *liveSession) close() {
	for _, c := range s.clients {
		c.tc.Close()
	}
	s.srv.Shutdown(2 * time.Second)
	if s.serveCh != nil {
		<-s.serveCh
	}
	os.Remove(s.sock)
}

// releaseMemory returns a closed session's memory to the OS so that
// the next session's peak is its own.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// liveClient is one closed-loop client and its measurements.
type liveClient struct {
	id int
	s  *liveSession
	tc *transport.Client
	lc *kv.LiveClient
	tr *pairTracer // nil when untraced

	lat      [nCallKinds]latHist // every call's latency over the window, ns
	slices   []liveSlice         // per second of the measured window; the last takes the remainder
	sliceAt  int64               // the window's start on the client's clock
	calls    [nCallKinds]int64
	keyOps   int64
	failed   int64 // calls with a failed check or an error
	errs     []error
	lastEnd  time.Time
	putBuf   []byte
	keys     []int64
	lo, got  []uint32
	outcome  []int8 // per key of a read call: 0 unvisited, 1 ok, -1 failed
	visitFn  func(i int, val []byte, err error)
	checkErr bool // a check failed in the current call
}

const maxKeptErrors = 8

func (c *liveClient) fail(err error) {
	c.checkErr = true
	if len(c.errs) < maxKeptErrors {
		c.errs = append(c.errs, err)
	}
}

// now is the monotonic clock calls are timed with: the recorder's when
// tracing, so spans and latencies share one time base.
func (c *liveClient) now() int64 {
	if c.s.rec != nil {
		return c.s.rec.now()
	}
	return int64(time.Since(c.s.epoch))
}

// liveSlice is what one client measured in one second of the window.
type liveSlice struct {
	lat    latHist // latencies of the workload's primary calls, ns
	keyOps int64
}

// slice returns the slice a call ending at end (client clock) falls in.
func (c *liveClient) slice(end int64) *liveSlice {
	i := int((end - c.sliceAt) / int64(time.Second))
	i = max(0, min(i, len(c.slices)-1))
	return &c.slices[i]
}

// record accounts one call of kind that ended at end (client clock),
// took d ns and covered keyOps key operations.
func (c *liveClient) record(kind callKind, end, d, keyOps int64) {
	c.lat[kind].record(d)
	sl := c.slice(end)
	if kind == c.s.spec.primary {
		sl.lat.record(d)
	}
	sl.keyOps += keyOps
	c.calls[kind]++
	c.keyOps += keyOps
}

// prepare sizes the client's per-call scratch for its workload.
func (c *liveClient) prepare() {
	spec := c.s.spec
	c.putBuf = make([]byte, spec.valueSize)
	c.keys = make([]int64, spec.train)
	c.lo = make([]uint32, spec.train)
	c.got = make([]uint32, spec.train)
	c.outcome = make([]int8, spec.train)
	c.visitFn = c.visit
	c.slices = make([]liveSlice, 1) // until a measured window sets its own
}

// run issues calls from the input stream rng until deadline.
func (c *liveClient) run(rng splitmix, deadline time.Time) {
	spec := c.s.spec
	n := int64(len(c.s.clients))
	own := (liveKeys - int64(c.id) + n - 1) / n // keys in this client's partition
	for time.Now().Before(deadline) {
		if rng.float() < spec.readFrac {
			for i := range c.keys {
				c.keys[i] = rng.intn(liveKeys)
			}
			c.read()
		} else {
			c.put(rng.intn(own)*n + int64(c.id))
		}
		c.lastEnd = time.Now()
		if c.checkErr && c.tc.Err() != nil {
			break // the socket is gone; later calls would fail the same way
		}
	}
}

// read issues one read call over c.keys and checks every value: intact,
// of the right key, and of a version the key could hold during the call.
func (c *liveClient) read() {
	for i, k := range c.keys {
		c.lo[i] = c.s.acked[k].Load()
		c.outcome[i] = 0
	}
	c.checkErr = false
	start := c.now()
	if c.tr != nil {
		c.tr.begin(callGet, start)
	}
	var err error
	if len(c.keys) == 1 {
		var val []byte
		val, err = c.lc.Get(c.keys[0])
		if err == nil || errors.Is(err, kv.ErrNotFound) {
			c.visit(0, val, err)
			err = nil
		}
	} else {
		err = c.lc.GetBatch(c.keys, c.visitFn)
	}
	end := c.now()
	if c.tr != nil {
		c.tr.end(end)
	}
	c.record(callGet, end, end-start, int64(len(c.keys)))
	if err != nil {
		c.fail(fmt.Errorf("read: %w", err))
	}
	for i, k := range c.keys {
		if err != nil {
			break
		}
		switch c.outcome[i] {
		case 0:
			c.fail(fmt.Errorf("key %d: not visited by the read", k))
		case 1:
			if hi := c.s.issued[k].Load(); c.got[i] < c.lo[i] || c.got[i] > hi {
				c.fail(fmt.Errorf("key %d: read version %d outside [%d, %d]", k, c.got[i], c.lo[i], hi))
			}
		}
	}
	if c.checkErr {
		c.failed++
	}
}

// visit checks one value returned by a read (val aliases transport
// storage and is only read here).
func (c *liveClient) visit(i int, val []byte, err error) {
	if err != nil {
		c.outcome[i] = -1
		c.fail(fmt.Errorf("key %d: %w", c.keys[i], err))
		return
	}
	ver, err := checkValue(val, c.keys[i], c.s.spec.valueSize)
	if err != nil {
		c.outcome[i] = -1
		c.fail(err)
		return
	}
	c.got[i], c.outcome[i] = ver, 1
}

// put writes the next version of key, which this client owns.
func (c *liveClient) put(key int64) {
	c.checkErr = false
	v := c.s.issued[key].Load() + 1
	c.s.issued[key].Store(v)
	fillValue(c.putBuf, key, v)
	start := c.now()
	if c.tr != nil {
		c.tr.begin(callPut, start)
	}
	err := c.lc.Put(key, c.putBuf)
	end := c.now()
	if c.tr != nil {
		c.tr.end(end)
	}
	c.record(callPut, end, end-start, 1)
	if err != nil {
		c.fail(fmt.Errorf("put key %d: %w", key, err))
		c.failed++
		return
	}
	c.s.acked[key].Store(v)
}

// measure runs every client closed-loop for d, each on its own input
// stream of (seed, phase, client), and returns the elapsed time from
// the common start to the last call's end. Measurements are kept per
// whole second of the window, plus one slice for the remainder.
func (s *liveSession) measure(seed, phase int64, d time.Duration) time.Duration {
	at := s.clients[0].now()
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range s.clients {
		c.lat = [nCallKinds]latHist{}
		c.slices = make([]liveSlice, int(d/time.Second)+1)
		c.sliceAt = at
	}
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *liveClient) {
			defer wg.Done()
			c.run(streamSeed(seed, phase, int64(c.id)), deadline)
		}(c)
	}
	wg.Wait()
	var last time.Time
	for _, c := range s.clients {
		if c.lastEnd.After(last) {
			last = c.lastEnd
		}
	}
	return last.Sub(start)
}

// readback checks, after the measured window, that every key holds its
// last acknowledged version; each client sweeps the keys it owns.
// It returns the keys checked and the failures found.
func (s *liveSession) readback() (checked, failed int64, errs []error) {
	n := int64(len(s.clients))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *liveClient) {
			defer wg.Done()
			var keys []int64
			var bad []error
			var nChecked, nBad int64
			fail := func(err error) {
				nBad++
				if len(bad) < maxKeptErrors {
					bad = append(bad, fmt.Errorf("read-back: %w", err))
				}
			}
			flush := func() {
				err := c.lc.GetBatch(keys, func(i int, val []byte, err error) {
					k := keys[i]
					if err == nil {
						var ver uint32
						if ver, err = checkValue(val, k, s.spec.valueSize); err == nil && ver != s.acked[k].Load() {
							err = fmt.Errorf("key %d: holds version %d, last acknowledged %d", k, ver, s.acked[k].Load())
						}
					}
					if err != nil {
						fail(err)
					}
				})
				if err != nil {
					for range keys {
						fail(err)
					}
				}
				nChecked += int64(len(keys))
				keys = keys[:0]
			}
			for k := int64(c.id); k < liveKeys; k += n {
				keys = append(keys, k)
				if len(keys) == 16 {
					flush()
				}
			}
			if len(keys) > 0 {
				flush()
			}
			mu.Lock()
			checked += nChecked
			failed += nBad
			errs = append(errs, bad...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return checked, failed, errs
}

// liveTotals sums the clients' measurements: pooled over the window,
// and per whole second (slices).
type liveTotals struct {
	lat     [nCallKinds]latHist
	slices  []liveSlice // whole seconds only, all clients merged
	calls   [nCallKinds]int64
	keyOps  int64
	failed  int64
	errs    []error
	elapsed time.Duration
}

func (s *liveSession) totals(elapsed time.Duration) liveTotals {
	t := liveTotals{elapsed: elapsed}
	t.slices = make([]liveSlice, len(s.clients[0].slices)-1)
	for _, c := range s.clients {
		for k := range c.lat {
			t.lat[k].merge(&c.lat[k])
		}
		for i := range t.slices {
			t.slices[i].lat.merge(&c.slices[i].lat)
			t.slices[i].keyOps += c.slices[i].keyOps
		}
		for k := range c.calls {
			t.calls[k] += c.calls[k]
		}
		t.keyOps += c.keyOps
		t.failed += c.failed
		t.errs = append(t.errs, c.errs...)
	}
	return t
}

// sliceOpsPerSec is the median over the window's whole seconds of the
// key-ops completed in each.
func (t *liveTotals) sliceOpsPerSec() float64 {
	var xs []float64
	for i := range t.slices {
		xs = append(xs, float64(t.slices[i].keyOps))
	}
	if len(xs) == 0 {
		return t.opsPerSec()
	}
	return medianFloat(xs)
}

// sliceLatencyUS is the median over the window's whole seconds of each
// second's p-quantile latency of the primary calls, in µs; the pooled
// quantile when the window has no whole second with such calls.
func (t *liveTotals) sliceLatencyUS(primary callKind, p float64) float64 {
	var xs []float64
	for i := range t.slices {
		if h := &t.slices[i].lat; h.n > 0 {
			xs = append(xs, float64(h.quantile(p))/1e3)
		}
	}
	if len(xs) == 0 {
		return t.latencyUS(primary, p)
	}
	return medianFloat(xs)
}

func (t *liveTotals) attempted() int64 { return t.calls[callGet] + t.calls[callPut] }

func (t *liveTotals) opsPerSec() float64 {
	if t.elapsed <= 0 {
		return 0
	}
	return float64(t.keyOps) / t.elapsed.Seconds()
}

// latencyUS returns the p-quantile latency of kind's calls in µs.
func (t *liveTotals) latencyUS(kind callKind, p float64) float64 {
	return float64(t.lat[kind].quantile(p)) / 1e3
}

// liveClients is the closed-loop client count: one per CPU.
func liveClients() int {
	if n := runtime.NumCPU(); n > 0 {
		return n
	}
	return 1
}
