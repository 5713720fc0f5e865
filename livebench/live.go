package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netchain"
	"netchain/internal/transport"
)

const (
	valueBytes   = 64
	warmupOps    = 1500 // per caller, before any timed op
	watchKeys    = 256
	probeKeys    = 64
	probeWindows = 16                     // watch probe on workloads whose load does not watch: windows ...
	probeWindow  = 500 * time.Millisecond // ... of this length
	settleWithin = 2 * time.Second
	maxOpSpans   = 60000 // live op spans kept by a traced phase, across callers
	windowLen    = time.Second
)

// spec is one workload: a closed loop of blocking callers, each waiting
// for its reply before issuing the next call.
type spec struct {
	name, why string
	clients   int // client sockets, all attached through the spare switch
	callers   int // blocking callers per client
	dataKeys  int
	lockKeys  int
	watch     bool // the load itself is a watched writer at depth 1
}

var specs = []spec{
	{name: "config-read", clients: 2, callers: 4, dataKeys: 1024,
		why: "100% Read over 1,024 uniform keys, 2 clients x 4 blocking callers: loads the one-hop tail read path and never touches chain writes, relay fan-out or watch"},
	{name: "lock-write", clients: 2, callers: 4, dataKeys: 1024, lockKeys: 64,
		why: "50% Write to zipf(1.1) keys (each caller its own order), 50% Acquire/Release on 64 locks, 2 x 4 callers: every call walks head, mid and tail, so a read gain that costs writes shows here"},
	{name: "watch-latency", clients: 1, callers: 1, dataKeys: watchKeys, watch: true,
		why: "1 client writes 256 keys round-robin at depth 1 and Watches them all: unloaded chain latency (the sub-RTT claim) and relay-to-watch delivery"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opAcquire
	opRelease
)

var opNames = [...]string{"read", "write", "acquire", "release"}

// step is one draw from a caller's seeded stream. A lock step issues an
// Acquire and, when granted, the matching Release.
type step struct {
	kind opKind
	key  int
}

// gen yields a caller's op stream; the same seed and caller index always
// give the same stream.
type gen struct {
	sp   spec
	rng  *rand.Rand
	zipf *rand.Zipf
	hot  []int // this caller's popularity order: zipf rank -> data key
	n    int
}

func newGen(sp spec, seed int64, caller int) *gen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(caller) + 1))
	g := &gen{sp: sp, rng: rng}
	if sp.lockKeys > 0 {
		// Each caller ranks the keys in its own order. One shared order
		// would put a fifth of all writes on a single key, and whichever
		// worker shard the seed hashes it to would set the whole run's
		// throughput; per-caller orders keep the skew but average that out.
		g.hot = rng.Perm(sp.dataKeys)
		g.zipf = rand.NewZipf(rng, 1.1, 1, uint64(sp.dataKeys-1))
	}
	return g
}

func (g *gen) next() step {
	g.n++
	switch {
	case g.sp.watch:
		return step{opWrite, (g.n - 1) % g.sp.dataKeys}
	case g.sp.lockKeys > 0:
		if g.rng.Intn(2) == 0 {
			return step{opWrite, g.hot[g.zipf.Uint64()]}
		}
		return step{opAcquire, g.rng.Intn(g.sp.lockKeys)}
	default:
		return step{opRead, g.rng.Intn(g.sp.dataKeys)}
	}
}

// keyset holds the seeded keys and values of one run.
type keyset struct {
	data, locks, probe []netchain.Key
	vals               [][]byte
}

func makeKeyset(sp spec, seed int64) keyset {
	rng := rand.New(rand.NewSource(seed))
	seen := map[netchain.Key]bool{}
	keys := func(n int) []netchain.Key {
		out := make([]netchain.Key, 0, n)
		for len(out) < n {
			var k netchain.Key
			rng.Read(k[:])
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
		return out
	}
	ks := keyset{data: keys(sp.dataKeys), locks: keys(sp.lockKeys)}
	if !sp.watch {
		ks.probe = keys(probeKeys)
	}
	for range ks.data {
		v := make([]byte, valueBytes)
		rng.Read(v)
		ks.vals = append(ks.vals, v)
	}
	return ks
}

// checker collects correctness violations from every goroutine.
type checker struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n == 0
}

// versionMax tracks the highest acked version per key.
type versionMax struct {
	mu sync.Mutex
	v  []netchain.Version
}

func (m *versionMax) raise(i int, v netchain.Version) {
	m.mu.Lock()
	if m.v[i].Less(v) {
		m.v[i] = v
	}
	m.mu.Unlock()
}

// bench is one booted cluster with its clients and the run's state.
type bench struct {
	sp      spec
	seed    int64
	ks      keyset
	cluster *netchain.Cluster
	gateway int // switch index every client attaches through
	clients []*netchain.Client
	sockets int // load-side sockets open now (clients plus watch subscriptions)
	maxSock int
	callers []*caller
	acked   versionMax
	holders []atomic.Uint64
	chk     *checker
	watch   *watchRun // the workload's own watch (watch-latency)
}

func (b *bench) openSocket() error {
	b.sockets++
	if b.sockets > b.maxSock {
		b.maxSock = b.sockets
	}
	if budget := max(runtime.NumCPU(), 2); b.sockets > budget {
		return fmt.Errorf("load would open %d sockets, budget is %d", b.sockets, budget)
	}
	return nil
}

// setup boots the cluster, inserts and seeds every key, attaches the
// clients and warms every caller up. Its wall time is setup_s.
func setup(sp spec, seed int64, chk *checker) (*bench, time.Duration, error) {
	start := time.Now()
	b := &bench{sp: sp, seed: seed, ks: makeKeyset(sp, seed), chk: chk}
	b.acked.v = make([]netchain.Version, sp.dataKeys)
	b.holders = make([]atomic.Uint64, sp.lockKeys)
	cl, err := netchain.StartLocalCluster(netchain.ClusterConfig{Switches: 4, Replicas: 3, IngestSockets: 1})
	if err != nil {
		return nil, 0, err
	}
	b.cluster = cl
	// The spare switch is in no chain, so every call crosses the same
	// number of switches whatever the seed places its key on.
	b.gateway = cl.Switches() - 1
	for _, set := range [][]netchain.Key{b.ks.data, b.ks.locks, b.ks.probe} {
		for _, k := range set {
			if err := cl.Insert(k); err != nil {
				b.close()
				return nil, 0, fmt.Errorf("insert: %w", err)
			}
		}
	}
	for i := 0; i < sp.clients; i++ {
		if err := b.openSocket(); err != nil {
			b.close()
			return nil, 0, err
		}
		c, err := cl.NewClient(b.gateway)
		if err != nil {
			b.close()
			return nil, 0, err
		}
		b.clients = append(b.clients, c)
	}
	c0 := b.clients[0]
	for i, k := range b.ks.data {
		ver, err := c0.Write(k, b.ks.vals[i])
		if err != nil {
			b.close()
			return nil, 0, fmt.Errorf("seed write: %w", err)
		}
		b.acked.raise(i, ver)
	}
	for _, k := range b.ks.probe {
		if _, err := c0.Write(k, make([]byte, valueBytes)); err != nil {
			b.close()
			return nil, 0, fmt.Errorf("seed write: %w", err)
		}
	}
	for i := 0; i < sp.clients*sp.callers; i++ {
		b.callers = append(b.callers, b.newCaller(i))
	}
	if sp.watch {
		if b.watch, err = b.startWatch(b.ks.data); err != nil {
			b.close()
			return nil, 0, err
		}
	}
	b.drive(func(c *caller) bool { return c.steps < warmupOps }, false, start)
	return b, time.Since(start), nil
}

func (b *bench) close() {
	if b.watch != nil {
		b.watch.stop()
		b.watch = nil
	}
	for _, c := range b.clients {
		c.Close()
	}
	b.clients = nil
	if b.cluster != nil {
		b.cluster.Close()
	}
}

// caller is one blocking coordination caller.
type caller struct {
	b       *bench
	id      int
	cl      *netchain.Client
	gen     *gen
	owner   uint64
	val     []byte
	lastVer []netchain.Version // config-read: per-key versions this caller saw
	steps   int

	// Per-phase records, reset by drive.
	lat       []uint32 // ns per call; failed calls are math.MaxUint32
	ops       int
	failed    int
	mutations int // acked writes, granted acquires and releases
	writes    []writeRec
	spans     []opSpan
	spanCap   int
}

type writeRec struct {
	key   int
	ver   netchain.Version
	issue time.Time
}

type opSpan struct {
	kind       opKind
	start, end int64 // ns since the phase start
}

func (b *bench) newCaller(i int) *caller {
	c := &caller{
		b: b, id: i, cl: b.clients[i/b.sp.callers],
		gen: newGen(b.sp, b.seed, i), owner: uint64(i) + 1,
		val: make([]byte, valueBytes),
	}
	copy(c.val, b.ks.vals[i%len(b.ks.vals)])
	binary.BigEndian.PutUint64(c.val, c.owner)
	if !b.sp.watch && b.sp.lockKeys == 0 {
		c.lastVer = make([]netchain.Version, b.sp.dataKeys)
	}
	return c
}

// drive runs every caller until more returns false, recording calls when
// rec is set (op spans are stamped relative to base). It returns the wall
// time from start to the last caller's end.
func (b *bench) drive(more func(*caller) bool, rec bool, base time.Time) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range b.callers {
		c.lat, c.ops, c.failed, c.mutations, c.writes = c.lat[:0], 0, 0, 0, c.writes[:0]
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for more(c) {
				c.step(rec, base)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func (c *caller) step(rec bool, base time.Time) {
	s := c.gen.next()
	c.steps++
	switch s.kind {
	case opRead:
		c.call(opRead, s.key, rec, base)
	case opWrite:
		c.call(opWrite, s.key, rec, base)
	case opAcquire:
		if c.call(opAcquire, s.key, rec, base) {
			c.call(opRelease, s.key, rec, base)
		}
	}
}

// call issues one blocking call, checks its answer and records it. For
// an Acquire it reports whether the lock was granted.
func (c *caller) call(kind opKind, key int, rec bool, base time.Time) bool {
	b := c.b
	granted := false
	t0 := time.Now()
	var err error
	switch kind {
	case opRead:
		var v netchain.Value
		var ver netchain.Version
		v, ver, err = c.cl.Read(b.ks.data[key])
		if err == nil {
			if !bytes.Equal(v, b.ks.vals[key]) {
				b.chk.fail("read of key %d returned %x, want the seeded bytes", key, v)
			}
			if ver.Less(c.lastVer[key]) {
				b.chk.fail("caller %d saw key %d go back from %v to %v", c.id, key, c.lastVer[key], ver)
			}
			c.lastVer[key] = ver
		}
	case opWrite:
		binary.BigEndian.PutUint64(c.val[8:], uint64(c.steps))
		var ver netchain.Version
		ver, err = c.cl.Write(b.ks.data[key], c.val)
		if err == nil {
			b.acked.raise(key, ver)
			if rec {
				c.mutations++
				if b.sp.watch {
					c.writes = append(c.writes, writeRec{key, ver, t0})
				}
			}
		}
	case opAcquire:
		granted, err = c.cl.Acquire(b.ks.locks[key], c.owner)
		if err == nil && granted {
			if !b.holders[key].CompareAndSwap(0, c.owner) {
				b.chk.fail("lock %d granted to %d while held by %d", key, c.owner, b.holders[key].Load())
			}
			if rec {
				c.mutations++
			}
		}
	case opRelease:
		b.holders[key].Store(0) // before the release lands, so the next holder finds it free
		var ok bool
		ok, err = c.cl.Release(b.ks.locks[key], c.owner)
		if err == nil && !ok {
			b.chk.fail("release of lock %d by its holder %d was refused", key, c.owner)
		}
		if err == nil && rec {
			c.mutations++
		}
	}
	t1 := time.Now()
	if !rec {
		return granted
	}
	c.ops++
	if err != nil {
		c.failed++
		c.lat = append(c.lat, math.MaxUint32)
	} else {
		c.lat = append(c.lat, uint32(min(t1.Sub(t0), math.MaxUint32-1)))
	}
	if len(c.spans) < c.spanCap {
		c.spans = append(c.spans, opSpan{kind, t0.Sub(base).Nanoseconds(), t1.Sub(base).Nanoseconds()})
	}
	return granted
}

// window is one slice of a timed phase. End-to-end metrics are medians
// over a phase's windows, so a burst of outside interference moves one
// window rather than the result.
type window struct {
	elapsed time.Duration
	ops     int
	failed  int
	lat     []uint32 // sorted
	cpu     time.Duration
	writes  []writeRec
}

func (w window) opsPerSec() float64 { return float64(w.ops-w.failed) / w.elapsed.Seconds() }

func (w window) cpuPerOpUs() float64 {
	return float64(w.cpu.Nanoseconds()) / 1e3 / float64(max(w.ops-w.failed, 1))
}

// phase is one timed stretch of closed-loop load: its windows plus
// whole-phase counter deltas.
type phase struct {
	windows   []window
	ops       int
	failed    int
	mutations int
	cpu       time.Duration
	client    clientCounters
	relay     relayDelta
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
	writes    []writeRec
	spans     [][]opSpan
}

// medianOpsPerSec is the phase's throughput as the end-to-end metric
// reports it: the median over windows.
func (p phase) medianOpsPerSec() float64 {
	xs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		xs[i] = w.opsPerSec()
	}
	return median(xs)
}

func (p phase) cpuPerOpUs() float64 {
	return float64(p.cpu.Nanoseconds()) / 1e3 / float64(max(p.ops-p.failed, 1))
}

// clientCounters sums the clients' public transport counters.
type clientCounters struct{ sent, retries, timeouts, late uint64 }

func (a clientCounters) add(s transport.ClientStats) clientCounters {
	return clientCounters{a.sent + s.Sent, a.retries + s.Retries, a.timeouts + s.Timeouts, a.late + s.Late}
}

func (a clientCounters) sub(b clientCounters) clientCounters {
	return clientCounters{a.sent - b.sent, a.retries - b.retries, a.timeouts - b.timeouts, a.late - b.late}
}

type relayDelta struct{ eventsIn, eventsOut, egress uint64 }

// measure runs the load for d in windows of windowLen, optionally
// recording op spans.
func (b *bench) measure(d time.Duration, traced bool) phase {
	for _, c := range b.callers {
		c.spans, c.spanCap = c.spans[:0], 0
		if traced {
			c.spanCap = maxOpSpans / len(b.callers)
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cs0, rs0 := b.clientStats(), b.cluster.RelayStats()
	var p phase
	base := time.Now()
	for left := d; left > 0; left -= windowLen {
		cpu0 := cpuTime()
		end := time.Now().Add(min(left, windowLen))
		w := window{elapsed: b.drive(func(*caller) bool { return time.Now().Before(end) }, true, base)}
		w.cpu = cpuTime() - cpu0
		for _, c := range b.callers {
			w.ops += c.ops
			w.failed += c.failed
			w.lat = append(w.lat, c.lat...)
			w.writes = append(w.writes, c.writes...)
			p.mutations += c.mutations
		}
		slices.Sort(w.lat)
		p.windows = append(p.windows, w)
		p.ops += w.ops
		p.failed += w.failed
		p.cpu += w.cpu
		p.writes = append(p.writes, w.writes...)
	}
	rs1, cs1 := b.cluster.RelayStats(), b.clientStats()
	runtime.ReadMemStats(&ms1)
	p.client = cs1.sub(cs0)
	p.relay = relayDelta{rs1.EventsIn - rs0.EventsIn, rs1.EventsOut - rs0.EventsOut, rs1.EgressDatagrams - rs0.EgressDatagrams}
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	if traced {
		for _, c := range b.callers {
			p.spans = append(p.spans, append([]opSpan(nil), c.spans...))
		}
	}
	return p
}

func (b *bench) clientStats() clientCounters {
	var s clientCounters
	for _, c := range b.clients {
		s = s.add(c.TransportStats())
	}
	return s
}

// finalCheck reads every data key once the load has stopped: each must
// be at or past the last acked write (lock-write), or still hold its
// seeded bytes (config-read).
func (b *bench) finalCheck() {
	c0 := b.clients[0]
	for i, k := range b.ks.data {
		v, ver, err := c0.Read(k)
		if err != nil {
			b.chk.fail("final read of key %d: %v", i, err)
			continue
		}
		if ver.Less(b.acked.v[i]) {
			b.chk.fail("key %d final version %v is behind the last acked write %v", i, ver, b.acked.v[i])
		}
		if b.sp.lockKeys == 0 && !b.sp.watch && !bytes.Equal(v, b.ks.vals[i]) {
			b.chk.fail("key %d final value changed under a read-only load", i)
		}
	}
	for i := range b.holders {
		if h := b.holders[i].Load(); h != 0 {
			b.chk.fail("lock %d still marked held by %d after the run", i, h)
		}
	}
}

// watchRun is one Watch subscription with its checks: per key, event
// versions only increase, and the stream converges to the last committed
// version within settleWithin.
type watchRun struct {
	b      *bench
	keys   []netchain.Key
	index  map[netchain.Key]int
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	last     []netchain.Version
	seen     []bool
	created  int
	arrivals []arrival
}

type arrival struct {
	key int
	ver netchain.Version
	at  time.Time
}

func (b *bench) startWatch(keys []netchain.Key) (*watchRun, error) {
	if err := b.openSocket(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	// A buffer far above the keys written between two reader wake-ups, so
	// the stream never coalesces and each write is matched to its own event.
	ch, err := b.clients[0].Watch(ctx, keys, netchain.WithWatchBuffer(4096))
	if err != nil {
		cancel()
		return nil, err
	}
	w := &watchRun{b: b, keys: keys, index: map[netchain.Key]int{}, cancel: cancel, done: make(chan struct{}),
		last: make([]netchain.Version, len(keys)), seen: make([]bool, len(keys))}
	for i, k := range keys {
		w.index[k] = i
	}
	go func() {
		defer close(w.done)
		for ev := range ch {
			at := time.Now()
			i, ok := w.index[ev.Key]
			w.mu.Lock()
			switch {
			case !ok:
				b.chk.fail("watch delivered an unwatched key")
			case w.seen[i] && !w.last[i].Less(ev.Version):
				b.chk.fail("watch key %d went from %v to %v", i, w.last[i], ev.Version)
			default:
				if !w.seen[i] {
					w.created++
				}
				w.seen[i], w.last[i] = true, ev.Version
				w.arrivals = append(w.arrivals, arrival{i, ev.Version, at})
			}
			w.mu.Unlock()
		}
	}()
	// Every key exists, so the initial state fetch yields one event each.
	if !w.waitFor(func() bool { return w.created == len(keys) }) {
		w.stop()
		return nil, fmt.Errorf("watch: initial events for %d of %d keys within %v", w.created, len(keys), settleWithin)
	}
	return w, nil
}

func (w *watchRun) waitFor(cond func() bool) bool {
	limit := time.Now().Add(settleWithin)
	for {
		w.mu.Lock()
		ok := cond()
		w.mu.Unlock()
		if ok || time.Now().After(limit) {
			return ok
		}
		time.Sleep(time.Millisecond)
	}
}

// settle checks that the stream reaches each key's last committed version.
func (w *watchRun) settle(committed func(i int) netchain.Version) {
	if !w.waitFor(func() bool {
		for i := range w.keys {
			if w.last[i].Less(committed(i)) {
				return false
			}
		}
		return true
	}) {
		w.b.chk.fail("watch stream did not reach the last committed versions within %v", settleWithin)
	}
}

func (w *watchRun) stop() {
	w.cancel()
	<-w.done
	w.b.sockets--
}

// latencies matches writes to their events: issue to arrival, in ns,
// sorted.
func (w *watchRun) latencies(writes []writeRec) (lat []uint32, delivered int) {
	type kv struct {
		key int
		ver netchain.Version
	}
	w.mu.Lock()
	at := make(map[kv]time.Time, len(w.arrivals))
	for _, a := range w.arrivals {
		at[kv{a.key, a.ver}] = a.at
	}
	w.mu.Unlock()
	for _, wr := range writes {
		t, ok := at[kv{wr.key, wr.ver}]
		if !ok {
			continue // coalesced into a later event
		}
		delivered++
		lat = append(lat, uint32(max(t.Sub(wr.issue), 0)))
	}
	slices.Sort(lat)
	return lat, delivered
}

// probeWatch gives workloads whose load does not watch their watch_*
// metrics: after the timed phase, client 0 watches the probe keys and
// writes them round-robin at depth 1 for probeWindows windows, whose
// sorted latencies it returns. Other clients close first, so the load stays
// inside its socket budget.
func (b *bench) probeWatch() ([][]uint32, error) {
	for _, c := range b.clients[1:] {
		c.Close()
		b.sockets--
	}
	b.clients = b.clients[:1]
	w, err := b.startWatch(b.ks.probe)
	if err != nil {
		return nil, err
	}
	defer w.stop()
	c0 := b.clients[0]
	val := make([]byte, valueBytes)
	last := make([]netchain.Version, len(b.ks.probe))
	chunks := make([][]writeRec, probeWindows)
	n := 0
	for win := range chunks {
		for end := time.Now().Add(probeWindow); time.Now().Before(end); n++ {
			i := n % len(b.ks.probe)
			binary.BigEndian.PutUint64(val, uint64(n))
			t0 := time.Now()
			ver, err := c0.Write(b.ks.probe[i], val)
			if err != nil {
				return nil, fmt.Errorf("watch probe write: %w", err)
			}
			last[i] = ver
			chunks[win] = append(chunks[win], writeRec{i, ver, t0})
		}
	}
	w.settle(func(i int) netchain.Version { return last[i] })
	var out [][]uint32
	for _, writes := range chunks {
		lat, _ := w.latencies(writes)
		if len(lat) < len(writes)/2 {
			b.chk.fail("watch probe: only %d of %d writes produced their own event", len(lat), len(writes))
		}
		out = append(out, lat)
	}
	return out, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the nearest-rank q-quantile of lat in microseconds;
// sorted must be ascending.
func quantileUs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
