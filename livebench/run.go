package main

import (
	"fmt"
	"math"
	"time"

	"netchain"
)

// setupRuns is how many times an end-to-end run sets the cluster up;
// setup_s is their median and the last one carries the load.
const setupRuns = 3

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(sp spec, seed int64, d time.Duration) (result, map[string]any, error) {
	chk := &checker{}
	var setups []float64
	var b *bench
	for i := 0; i < setupRuns; i++ {
		bi, took, err := setup(sp, seed, chk)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRuns-1 {
			bi.close()
		} else {
			b = bi
		}
	}
	defer b.close()

	p := b.measure(d, false)
	b.finalCheck()
	wins, err := b.watchWindows(p)
	if err != nil {
		return result{}, nil, err
	}
	perWindow := map[string][]float64{}
	over := func(name string, n int, f func(i int) float64) float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		perWindow[name] = xs
		return median(xs)
	}
	loadQ := func(name string, q float64) float64 {
		return over(name, len(p.windows), func(i int) float64 { return quantileUs(p.windows[i].lat, q) })
	}
	watchQ := func(name string, q float64) float64 {
		return over(name, len(wins), func(i int) float64 { return quantileUs(wins[i], q) })
	}
	res := result{
		Correct:   chk.ok(),
		Attempted: p.ops,
		Failed:    p.failed,
		Metrics: metrics(endToEnd, map[string]float64{
			"setup_s":       median(setups),
			"ops_per_s":     over("ops_per_s", len(p.windows), func(i int) float64 { return p.windows[i].opsPerSec() }),
			"p50_us":        loadQ("p50_us", 0.50),
			"cpu_us_per_op": over("cpu_us_per_op", len(p.windows), func(i int) float64 { return p.windows[i].cpuPerOpUs() }),
			"watch_p50_us":  watchQ("watch_p50_us", 0.50),
		}),
	}
	tailVals := metrics(tails, map[string]float64{
		"p99_us":       loadQ("p99_us", 0.99),
		"p999_us":      loadQ("p999_us", 0.999),
		"watch_p99_us": watchQ("watch_p99_us", 0.99),
	})
	ctx := b.context(p, chk)
	ctx["setup_runs_s"] = setups
	ctx["per_window"] = perWindow
	ctx["tails"] = tailVals
	minLat, minWatch := math.MaxInt, math.MaxInt
	for _, w := range p.windows {
		minLat = min(minLat, len(w.lat))
	}
	for _, lat := range wins {
		minWatch = min(minWatch, len(lat))
	}
	ctx["samples"] = map[string]any{
		"windows": len(p.windows), "window_s": windowLen.Seconds(), "watch_windows": len(wins),
		"min_calls_per_window": minLat, "min_watch_events_per_window": minWatch,
		"rule": "each latency metric is the median over windows of that window's nearest-rank percentile",
	}
	if !sp.watch {
		ctx["watch_source"] = fmt.Sprintf("probe after the timed phase: client 0 watches %d keys and writes them round-robin at depth 1 for %d windows of %v",
			probeKeys, probeWindows, probeWindow)
	}
	return res, ctx, nil
}

// watchWindows returns sorted write-to-event latencies per window: the
// load's own windows on watch-latency, the watch probe's elsewhere.
func (b *bench) watchWindows(p phase) ([][]uint32, error) {
	if !b.sp.watch {
		return b.probeWatch()
	}
	b.watch.settle(func(i int) netchain.Version { return b.acked.v[i] })
	var out [][]uint32
	for _, w := range p.windows {
		lat, _ := b.watch.latencies(w.writes)
		out = append(out, lat)
	}
	return out, nil
}

func (b *bench) context(p phase, chk *checker) map[string]any {
	chk.mu.Lock()
	defer chk.mu.Unlock()
	return map[string]any{
		"load": map[string]any{
			"loop":                  "closed: each caller waits for its reply before the next call",
			"clients":               b.sp.clients,
			"callers_per_client":    b.sp.callers,
			"max_load_sockets":      b.maxSock,
			"warmup_ops_per_caller": warmupOps,
			"key_bytes":             16,
			"value_bytes":           valueBytes,
		},
		"failed_frac":     float64(p.failed) / float64(max(p.ops, 1)),
		"violations":      chk.n,
		"violation_msgs":  chk.msgs,
		"settle_within_s": settleWithin.Seconds(),
		"cpu_base":        "cpu_us_per_op is process user+sys time over completed calls; the cluster shares the process",
	}
}
