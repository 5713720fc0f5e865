package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netchain/internal/benchjson"
	"netchain/internal/controller"
	"netchain/internal/kv"
	"netchain/internal/livecluster"
	"netchain/internal/query"
	"netchain/internal/stats"
	"netchain/internal/trace"
	"netchain/internal/transport"
)

// This file measures the real-UDP data plane — actual wall-clock
// throughput of core.Switch behind a socket, not simulated time. Three
// scenarios pin the multicore read-path work:
//
//   - read-scaling: pure-read ops/sec at GOMAXPROCS 1/2/4/8 against one
//     switch node. The lock-free read path should scale with cores until
//     the socket saturates; a collapse back to flat means a lock crept
//     back into the hot loop.
//   - hot-key: zipfian key popularity with 10% writes — readers hammer
//     the same slots writers are stamping, exercising seqlock retries and
//     the per-group write shards under real contention.
//   - value-sweep: pure reads at 16→128 B values, the paper's line-rate
//     envelope (§7): the zero-allocation copy cost should grow linearly
//     and gently with value size.
//
// Unlike the simulated BenchSmoke numbers these depend on the machine, so
// each result carries a generous per-scenario gate tolerance (consumed by
// benchjson.Compare): the CI gate catches collapses, not jitter.

// UDPBenchTolerance is the regression tolerance stamped on real-UDP
// scenarios: wall-clock numbers vary across machines and CI runners, so
// only a >60% collapse (a lock back on the read path, a deadlocked
// worker) trips the gate.
const UDPBenchTolerance = 0.6

// UDPBenchTolP99 is the wider p99-only tolerance stamped on real-UDP
// scenarios. The batched ingest path pushed steady-state p99 down to
// ~1 ms, which makes a single multi-millisecond preemption or GC pause
// on a busy runner a >60% relative spike — pure jitter, not a
// regression. Tail collapse that matters (a lock back on the read path)
// also craters throughput, which the tighter UDPBenchTolerance catches.
const UDPBenchTolP99 = 2.5

// UDPBenchOpts tunes the real-UDP scenarios.
type UDPBenchOpts struct {
	Duration  time.Duration // per-point measurement window, default 400 ms
	Keys      int           // store size, default 256
	Clients   int           // concurrent client sockets, default 4
	Window    int           // per-client in-flight queries, default 64
	Procs     []int         // read-scaling GOMAXPROCS points, default 1,2,4,8
	ValueSize int           // value bytes for read-scaling and hot-key, default 64
	Sockets   int           // SO_REUSEPORT ingest sockets, 0 = auto (per core, Linux)
	Batch     int           // datagrams per ingest syscall, 0 = 32

	// Tracer, when set, enables in-band telemetry on every client at
	// TraceSampleRate (0 = the client default, 1/1024) — used by the
	// trace experiment's A/B overhead measurement.
	Tracer          *trace.Collector
	TraceSampleRate float64
}

func (o *UDPBenchOpts) defaults() {
	if o.Duration == 0 {
		o.Duration = 400 * time.Millisecond
	}
	if o.Keys == 0 {
		o.Keys = 256
	}
	if o.Clients == 0 {
		o.Clients = 4
	}
	if o.Window == 0 {
		o.Window = 64
	}
	if len(o.Procs) == 0 {
		// Sweep 1/2/4/8 capped at the machine's cores: points beyond
		// NumCPU measure scheduler oversubscription, not scaling. A
		// machine with a non-power-of-two core count still gets its full
		// parallelism as the last point.
		max := runtime.NumCPU()
		if max > 8 {
			max = 8
		}
		for _, p := range []int{1, 2, 4, 8} {
			if p <= max {
				o.Procs = append(o.Procs, p)
			}
		}
		if o.Procs[len(o.Procs)-1] != max {
			o.Procs = append(o.Procs, max)
		}
	}
	if o.ValueSize == 0 {
		o.ValueSize = 64
	}
}

// udpCluster is a real-UDP deployment on the live loopback harness, its
// keys inserted and seeded, driven by pipelined clients attached through
// switch 0. Every switch replicates every chain. Routes are pinned once at
// boot (pinRoutes), so the rows measure the data plane, not the
// controller's route lock.
type udpCluster struct {
	*livecluster.Cluster
	keys    []kv.Key
	clients []*livecluster.Client
	ops     []*transport.Ops
}

func newUDPCluster(o UDPBenchOpts, switches int) (*udpCluster, error) {
	lc, err := livecluster.Start(livecluster.Config{
		Switches: switches, Replicas: switches, IngestSockets: o.Sockets, RecvBatch: o.Batch,
	})
	if err != nil {
		return nil, err
	}
	// Nothing here watches, and the rows measure the data plane alone, so
	// tails publish no push-watch events to the relay.
	for i := 0; i < switches; i++ {
		lc.Node(i).SetEventSink(0, nil)
	}
	c := &udpCluster{Cluster: lc, keys: make([]kv.Key, o.Keys)}
	for i := range c.keys {
		c.keys[i] = kv.KeyFromUint64(uint64(i + 1))
		if err := lc.Insert(c.keys[i]); err != nil {
			c.Close()
			return nil, err
		}
	}
	route := pinRoutes(lc.Controller(), c.keys)
	for i := 0; i < o.Clients; i++ {
		cl, err := lc.Attach(0, transport.ClientConfig{
			Window:          o.Window,
			Timeout:         250 * time.Millisecond,
			Retries:         8,
			Tracer:          o.Tracer,
			TraceSampleRate: o.TraceSampleRate,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
		c.ops = append(c.ops, &transport.Ops{Client: cl.Transport(), Dir: route})
	}
	if err := c.reseed(o.ValueSize); err != nil {
		c.Close()
		return nil, fmt.Errorf("seed: %w", err)
	}
	return c, nil
}

// pinRoutes resolves every key's chain once through the controller. The
// benchmark topologies are static, so the memo stays exact and the load
// generator never takes the controller's lock; it is read-only after
// boot, so concurrent lookups are race-free.
func pinRoutes(ctl *controller.Controller, keys []kv.Key) transport.Directory {
	routes := make(map[kv.Key]query.Route, len(keys))
	for _, k := range keys {
		rt := ctl.Route(k)
		routes[k] = query.Route{Group: rt.Group, Hops: rt.Hops}
	}
	return func(k kv.Key) (query.Route, error) {
		if rt, ok := routes[k]; ok {
			return rt, nil
		}
		return query.Route{}, fmt.Errorf("experiments: key %v has no pinned route", k)
	}
}

func (c *udpCluster) Close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	c.Cluster.Close()
}

// reseed writes every key with a value of n bytes.
func (c *udpCluster) reseed(n int) error {
	val := make(kv.Value, n)
	for i := range val {
		val[i] = byte(i * 3)
	}
	for _, k := range c.keys {
		if _, err := c.ops[0].Write(k, val); err != nil {
			return err
		}
	}
	return nil
}

// drive runs every client at full pipeline depth until the deadline, with
// the given write ratio and (optional) zipfian key popularity. Operations
// go out through the async API so the window keeps the pipe full; each
// success counts toward throughput and the latency histogram.
func (c *udpCluster) drive(d time.Duration, writeRatio float64, zipfS float64, valueSize int) (opsPerSec float64, lat *stats.Histogram, err error) {
	clients, keys := c.ops, c.keys
	var done atomic.Uint64
	var failed atomic.Uint64
	hists := make([]*stats.Histogram, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	writeVal := make(kv.Value, valueSize)
	for i := range writeVal {
		writeVal[i] = byte(i * 5)
	}
	for ci, ops := range clients {
		wg.Add(1)
		hist := stats.NewLatencyHistogram()
		hists[ci] = hist
		go func(ci int, ops *transport.Ops) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			var zipf *rand.Zipf
			if zipfS > 0 {
				zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
			}
			var inner sync.WaitGroup
			for {
				// One clock read serves both the deadline check and the
				// latency timestamp — two per op is measurable at line rate.
				issued := time.Now()
				if !issued.Before(deadline) {
					break
				}
				var k kv.Key
				if zipf != nil {
					k = keys[zipf.Uint64()]
				} else {
					k = keys[rng.Intn(len(keys))]
				}
				inner.Add(1)
				record := func(err error) {
					if err != nil {
						failed.Add(1)
					} else {
						done.Add(1)
						// The success path runs on the client's single
						// receive goroutine, so the per-client histogram
						// needs no lock.
						hist.ObserveDuration(time.Since(issued))
					}
					inner.Done()
				}
				if rng.Float64() < writeRatio {
					ops.WriteAsync(k, writeVal, func(_ kv.Version, err error) { record(err) })
				} else {
					ops.ReadAsync(k, func(_ kv.Value, _ kv.Version, err error) { record(err) })
				}
			}
			inner.Wait()
		}(ci, ops)
	}
	wg.Wait()
	elapsed := time.Since(start)
	lat = stats.NewLatencyHistogram()
	for _, h := range hists {
		if err := lat.Merge(h); err != nil {
			return 0, nil, err
		}
	}
	if f, n := failed.Load(), done.Load(); n == 0 || f > n/10 {
		return 0, nil, fmt.Errorf("udpbench: %d of %d ops failed", f, f+n)
	}
	return float64(done.Load()) / elapsed.Seconds(), lat, nil
}

func udpResult(scenario string, qps float64, lat *stats.Histogram) benchjson.Result {
	return benchjson.Result{
		Scenario:  scenario,
		OpsPerSec: qps,
		P50us:     lat.P50() / 1e3,
		P99us:     lat.P99() / 1e3,
		Tol:       UDPBenchTolerance,
		TolP99:    UDPBenchTolP99,
	}
}

// ReadScaling measures pure-read ops/sec against one switch node at each
// GOMAXPROCS point, booting a fresh cluster per point so ingest sockets and
// client goroutines size themselves to the restricted scheduler.
func ReadScaling(o UDPBenchOpts) ([]benchjson.Result, error) {
	o.defaults()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var out []benchjson.Result
	for _, p := range o.Procs {
		runtime.GOMAXPROCS(p)
		c, err := newUDPCluster(o, 1)
		if err != nil {
			return nil, err
		}
		qps, lat, err := c.drive(o.Duration, 0, 0, o.ValueSize)
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("read-scaling p=%d: %w", p, err)
		}
		r := udpResult(fmt.Sprintf("read-scaling/p=%d", p), qps, lat)
		// Which p-points exist depends on the generating machine's core
		// count; mark them optional so a baseline regenerated on a big
		// machine doesn't demand points a smaller CI runner can't emit.
		r.Optional = true
		out = append(out, r)
	}
	// Headline scenario: the full-core read throughput of the real-UDP
	// path (the PR gate's "2x the single-lock baseline" number).
	head := out[len(out)-1]
	head.Scenario = "udp-read-throughput"
	out = append(out, head)
	return out, nil
}

// HotKey measures a zipfian 90/10 read/write mix: most traffic lands on a
// few hot slots, so seqlock readers race the head's stamping on the same
// key while the group shard locks absorb the write side.
func HotKey(o UDPBenchOpts) ([]benchjson.Result, error) {
	o.defaults()
	c, err := newUDPCluster(o, 1)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	qps, lat, err := c.drive(o.Duration, 0.1, 1.2, o.ValueSize)
	if err != nil {
		return nil, fmt.Errorf("hot-key: %w", err)
	}
	return []benchjson.Result{udpResult("hot-key", qps, lat)}, nil
}

// ValueSweep measures pure-read throughput at 16→128 B values — the
// paper's single-pass envelope; the copy in the seqlock read should cost
// linearly in words, not allocations.
func ValueSweep(o UDPBenchOpts) ([]benchjson.Result, error) {
	o.defaults()
	c, err := newUDPCluster(o, 1)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var out []benchjson.Result
	for _, size := range []int{16, 32, 64, 128} {
		if err := c.reseed(size); err != nil {
			return nil, err
		}
		qps, lat, err := c.drive(o.Duration, 0, 0, size)
		if err != nil {
			return nil, fmt.Errorf("value-sweep %dB: %w", size, err)
		}
		out = append(out, udpResult(fmt.Sprintf("value-sweep/%dB", size), qps, lat))
	}
	return out, nil
}

// UDPBench runs every real-UDP scenario and concatenates the results for
// BENCH.json.
func UDPBench(o UDPBenchOpts) ([]benchjson.Result, error) {
	scaling, err := ReadScaling(o)
	if err != nil {
		return nil, err
	}
	hot, err := HotKey(o)
	if err != nil {
		return nil, err
	}
	sweep, err := ValueSweep(o)
	if err != nil {
		return nil, err
	}
	out := append(scaling, hot...)
	return append(out, sweep...), nil
}

// FormatUDPBench renders the real-UDP results, highlighting the scaling
// ratio between the first and last read-scaling points.
func FormatUDPBench(results []benchjson.Result) string {
	s := fmt.Sprintf("%-24s %12s %10s %10s\n", "scenario (real UDP)", "KQPS", "p50 µs", "p99 µs")
	var first, last float64
	for _, r := range results {
		s += fmt.Sprintf("%-24s %12.1f %10.1f %10.1f\n", r.Scenario, r.OpsPerSec/1e3, r.P50us, r.P99us)
		if len(r.Scenario) > 13 && r.Scenario[:13] == "read-scaling/" {
			if first == 0 {
				first = r.OpsPerSec
			}
			last = r.OpsPerSec
		}
	}
	if first > 0 {
		s += fmt.Sprintf("read scaling %0.2fx (GOMAXPROCS %s)\n", last/first, "first→last point")
	}
	return s
}
