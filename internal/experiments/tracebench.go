package experiments

import (
	"fmt"
	"time"

	"netchain/internal/benchjson"
	"netchain/internal/packet"
	"netchain/internal/stats"
	"netchain/internal/trace"
)

// The trace experiment answers "where does the sub-RTT budget go" with
// in-band telemetry instead of guesswork: a real-UDP 3-switch chain runs
// a mixed read/write load with a high trace sampling rate, every hop
// stamps its ingress/egress into the sampled frames, and the client-side
// collector decomposes end-to-end latency into head/mid/tail processing,
// tail read service, and wire transit. Two invariants gate the run:
//
//   - Attribution must telescope: on a no-fault schedule the hop-sum
//     (stage processing + wire gaps) accounts for the measured
//     end-to-end latency within 10% (everything shares one host clock).
//   - Telemetry must be ~free when off: an A/B measurement of the
//     single-switch read scenario with tracing disabled vs. sampled at
//     the default 1/1024 proves the untraced fast path didn't pay for
//     the feature.

// TraceBenchOpts tunes the latency-breakdown experiment.
type TraceBenchOpts struct {
	Duration   time.Duration // per-phase measurement window, default 400 ms
	Keys       int           // store size, default 128
	Clients    int           // concurrent client sockets, default 2
	Window     int           // per-client in-flight queries, default 32
	SampleRate float64       // trace sampling on the breakdown phase, default 1/16
	WriteRatio float64       // write share of the mixed load, default 0.3
	ABWindows  int           // A/B windows per arm for the overhead phase, default 3
}

func (o *TraceBenchOpts) defaults() {
	if o.Duration == 0 {
		o.Duration = 400 * time.Millisecond
	}
	if o.Keys == 0 {
		o.Keys = 128
	}
	if o.Clients == 0 {
		o.Clients = 2
	}
	if o.Window == 0 {
		o.Window = 32
	}
	if o.SampleRate == 0 {
		o.SampleRate = 1.0 / 16
	}
	if o.WriteRatio == 0 {
		o.WriteRatio = 0.3
	}
	if o.ABWindows == 0 {
		o.ABWindows = 3
	}
}

// traceRow encodes one per-hop percentile row: the sample count rides in
// OpsPerSec (a floor gate on sampling health), the percentiles in µs.
func traceRow(scenario string, h *stats.Histogram) benchjson.Result {
	return benchjson.Result{
		Scenario:  scenario,
		OpsPerSec: float64(h.Count()),
		P50us:     h.P50() / 1e3,
		P99us:     h.P99() / 1e3,
		Tol:       UDPBenchTolerance,
		TolP99:    UDPBenchTolP99,
	}
}

// TraceBench runs the latency-breakdown experiment and returns its
// BENCH.json rows.
func TraceBench(o TraceBenchOpts) ([]benchjson.Result, error) {
	o.defaults()

	// Phase 1: per-hop breakdown on a 3-switch chain. Every key's chain
	// traverses all three switches, so writes exercise head→mid→tail and
	// reads the tail's register file.
	col := trace.NewCollector()
	c, err := newUDPCluster(UDPBenchOpts{
		Keys: o.Keys, Clients: o.Clients, Window: o.Window, ValueSize: 64,
		Tracer: col, TraceSampleRate: o.SampleRate,
	}, 3)
	if err != nil {
		return nil, err
	}
	_, _, err = c.drive(o.Duration, o.WriteRatio, 0, 64)
	c.Close()
	if err != nil {
		return nil, fmt.Errorf("trace breakdown: %w", err)
	}
	traces := col.Traces.Load()
	if traces < 100 {
		return nil, fmt.Errorf("trace breakdown: only %d sampled traces (want >= 100)", traces)
	}
	if hopless := col.Hopless.Load(); hopless*10 > traces {
		return nil, fmt.Errorf("trace breakdown: %d of %d traced replies carried no hops", hopless, traces)
	}
	// Acceptance: the stamps must account for the measured end-to-end
	// latency within 10% on this no-fault, single-clock schedule.
	cov := col.MeanCoverage()
	if cov < 0.9 || cov > 1.1 {
		return nil, fmt.Errorf("trace breakdown: hop-sum covers %.1f%% of end-to-end latency (want 90-110%%)", 100*cov)
	}

	results := []benchjson.Result{
		traceRow("trace-hop-head", col.StageHist(packet.StageHead)),
		traceRow("trace-hop-mid", col.StageHist(packet.StageMid)),
		traceRow("trace-hop-tail", col.StageHist(packet.StageTail)),
		traceRow("trace-hop-read", col.StageHist(packet.StageRead)),
		traceRow("trace-wire-transit", col.Wire),
		traceRow("trace-client-queue", col.Queue),
		traceRow("trace-e2e", col.Total),
		{Scenario: "trace-coverage-pct", OpsPerSec: 100 * cov, Tol: 0.15},
		{Scenario: "trace-retry-share", OpsPerSec: col.RetryShare(), Optional: true},
	}

	// Phase 2: A/B overhead of the telemetry branch on the single-switch
	// read scenario — tracing off vs. the default 1/1024 sampling.
	// Alternating fresh clusters per window keeps thermal/scheduler drift
	// from loading one arm; the medians damp the rest.
	overhead, base, err := traceOverhead(o)
	if err != nil {
		return nil, err
	}
	results = append(results, benchjson.Result{
		Scenario:  "trace-overhead-pct",
		OpsPerSec: base / 1e3, // untraced KQPS, floor-gated like the other UDP rows
		P99us:     overhead * 100,
		Tol:       UDPBenchTolerance,
		TolP99:    4.0,
	})
	return results, nil
}

// traceOverhead measures the throughput cost of the (almost always
// untaken) telemetry branch: median read throughput with no tracer vs.
// with the default 1/1024 sampling, on the same single-switch scenario
// udp-read-throughput gates. Returns the relative slowdown (negative
// clamped to 0) and the untraced arm's throughput.
func traceOverhead(o TraceBenchOpts) (overhead, baseQPS float64, err error) {
	uo := UDPBenchOpts{Duration: o.Duration, Clients: o.Clients, Window: o.Window}
	uo.defaults()
	to := uo
	to.Tracer = trace.NewCollector() // client default: 1/1024
	baseCl, err := newUDPCluster(uo, 1)
	if err != nil {
		return 0, 0, err
	}
	defer baseCl.Close()
	tracedCl, err := newUDPCluster(to, 1)
	if err != nil {
		return 0, 0, err
	}
	defer tracedCl.Close()
	// Both clusters live the whole measurement and the windows alternate,
	// so scheduler/thermal drift loads both arms equally; the first window
	// of each arm is a discarded warmup (socket buffers, branch caches).
	// A true branch cost reproduces across window sets, so the hard bound
	// below only fires after a second set confirms it — one set can lose an
	// arm to a co-tenant burst on a shared runner.
	var tracedQPS float64
	for attempt := 0; attempt < 2; attempt++ {
		var bases, traceds []float64
		for i := 0; i <= o.ABWindows; i++ {
			b, _, err := baseCl.drive(uo.Duration, 0, 0, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("trace overhead (untraced window %d): %w", i, err)
			}
			tr, _, err := tracedCl.drive(uo.Duration, 0, 0, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("trace overhead (traced window %d): %w", i, err)
			}
			if i == 0 {
				continue
			}
			bases, traceds = append(bases, b), append(traceds, tr)
		}
		// Best window per arm: preemptions and GC pauses only ever subtract
		// throughput, so the max is the least-noisy estimate of each arm's
		// capacity — the quantity the branch cost actually shifts.
		baseQPS, tracedQPS = maxOf(bases), maxOf(traceds)
		overhead = 1 - tracedQPS/baseQPS
		if overhead < 0 {
			overhead = 0 // noise: traced arm ran faster
		}
		// Hard sanity bound — well above the <2% target to stay robust on
		// noisy CI runners, but a double-digit cost means the untraced fast
		// path grew real work and must fail the experiment.
		if overhead <= 0.15 {
			return overhead, baseQPS, nil
		}
	}
	return 0, 0, fmt.Errorf("telemetry overhead %.1f%% on the read path (untraced %.0f qps, traced %.0f qps)",
		100*overhead, baseQPS, tracedQPS)
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// FormatTraceBench renders the latency-breakdown rows.
func FormatTraceBench(results []benchjson.Result) string {
	s := fmt.Sprintf("%-22s %12s %10s %10s\n", "trace (real UDP)", "samples", "p50 µs", "p99 µs")
	for _, r := range results {
		switch r.Scenario {
		case "trace-coverage-pct":
			s += fmt.Sprintf("%-22s %11.1f%% of end-to-end latency attributed to hops\n", r.Scenario, r.OpsPerSec)
		case "trace-retry-share":
			s += fmt.Sprintf("%-22s %12.4f of sampled time in retry backoff\n", r.Scenario, r.OpsPerSec)
		case "trace-overhead-pct":
			s += fmt.Sprintf("%-22s %11.2f%% read-path cost at 1/1024 sampling (untraced %.0f KQPS)\n",
				r.Scenario, r.P99us, r.OpsPerSec)
		default:
			s += fmt.Sprintf("%-22s %12.0f %10.1f %10.1f\n", r.Scenario, r.OpsPerSec, r.P50us, r.P99us)
		}
	}
	return s
}
