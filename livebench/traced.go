package main

import (
	"fmt"
	"path/filepath"
	"time"

	"netchain"
)

// runTraced gives the per-layer metrics: an untraced load phase (live
// counters, the waterfall base), a traced phase recording op spans (the
// tracing overhead), then the layer replay and the loopback floor once
// the cluster is down.
func runTraced(sp spec, seed int64, d time.Duration, out string) (result, map[string]any, error) {
	chk := &checker{}
	b, _, err := setup(sp, seed, chk)
	if err != nil {
		return result{}, nil, err
	}
	pu := b.measure(d, false)
	pt := b.measure(d, true)
	b.finalCheck()
	delivered := 0
	if sp.watch {
		b.watch.settle(func(i int) netchain.Version { return b.acked.v[i] })
		_, delivered = b.watch.latencies(pu.writes)
	}
	rp, err := newReplay(b)
	ctx := b.context(pu, chk)
	b.close()
	if err != nil {
		return result{}, nil, err
	}
	time.Sleep(50 * time.Millisecond) // let the cluster's goroutines finish exiting
	costs := rp.measure()
	floor, err := udpFloorUs(10000)
	if err != nil {
		return result{}, nil, err
	}

	calls := rp.callsPerOp()
	commitsPerChain := 0.0
	if n := calls["core.write_chain_self"]; n > 0 {
		commitsPerChain = calls["swsim.commit"] / n
	} else {
		commitsPerChain = float64(len(rp.muts[0].rt.Hops))
	}
	self := map[string]float64{
		"core.read_self":        costs["core.read"].ns - costs["swsim.read"].ns,
		"core.write_chain_self": costs["core.write_chain"].ns - commitsPerChain*costs["swsim.commit"].ns,
	}
	for name, c := range costs {
		if name != "core.read" && name != "core.write_chain" {
			self[name] = c.ns
		}
	}
	attributedNs := 0.0
	for name, n := range calls {
		attributedNs += self[name] * n
	}
	cpuPerOp := pu.cpuPerOpUs()
	completed := float64(max(pu.ops-pu.failed, 1))
	perOp := func(v uint64) float64 { return float64(v) / float64(max(pu.ops, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	vals := map[string]float64{
		"query.build_ns":            costs["query.build"].ns,
		"query.build_allocs":        costs["query.build"].allocs,
		"query.parse_ns":            costs["query.parse"].ns,
		"query.parse_allocs":        costs["query.parse"].allocs,
		"packet.encode_ns":          costs["packet.encode"].ns,
		"packet.decode_ns":          costs["packet.decode"].ns,
		"route.lookup_ns":           costs["route.lookup"].ns,
		"addrbook.get_ns":           costs["addrbook.get"].ns,
		"core.read_ns":              costs["core.read"].ns,
		"core.read_self_ns":         self["core.read_self"],
		"core.write_chain_ns":       costs["core.write_chain"].ns,
		"core.write_chain_self_ns":  self["core.write_chain_self"],
		"swsim.read_ns":             costs["swsim.read"].ns,
		"swsim.commit_ns":           costs["swsim.commit"].ns,
		"relay.ingest_ns":           costs["relay.ingest"].ns,
		"watch.apply_ns":            costs["watch.apply"].ns,
		"udp.rtt_floor_us":          floor,
		"client.datagrams_per_op":   perOp(pu.client.sent),
		"client.retries_per_op":     perOp(pu.client.retries),
		"client.late_per_op":        perOp(pu.client.late),
		"client.timeouts":           float64(pu.client.timeouts),
		"client.failed_frac":        perOp(uint64(pu.failed)),
		"relay.events_per_write":    ratio(float64(pu.relay.eventsIn), float64(pu.mutations)),
		"relay.fanout_per_event":    ratio(float64(pu.relay.egress), float64(pu.relay.eventsOut)),
		"watch.events_per_write":    ratio(float64(delivered), float64(len(pu.writes))),
		"process.allocs_per_op":     float64(pu.mallocs) / completed,
		"process.gc_cycles":         float64(pu.gcCycles),
		"process.gc_pause_us":       float64(pu.gcPauseNs) / 1e3,
		"waterfall.attributed_frac": attributedNs / (cpuPerOp * 1e3),
		"trace.overhead_frac":       1 - pt.medianOpsPerSec()/pu.medianOpsPerSec(),
	}

	spans := liveSpans(pt)
	spans = append(spans, rp.spans(spanOps, len(spans))...)
	spanPath := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, seed))
	if err := writeSpans(spanPath, spans); err != nil {
		return result{}, nil, err
	}

	layerNs := map[string]map[string]float64{}
	for name, c := range costs {
		layerNs[name] = map[string]float64{"ns_per_call": c.ns, "allocs_per_call": c.allocs}
	}
	ctx["calls_per_op"] = calls
	ctx["layer_costs"] = layerNs
	ctx["waterfall"] = map[string]any{
		"base":                 "cpu_us_per_op of the untraced phase",
		"cpu_us_per_op":        cpuPerOp,
		"attributed_ns_per_op": attributedNs,
	}
	ctx["phases"] = map[string]any{
		"untraced_ops_per_s": pu.medianOpsPerSec(),
		"traced_ops_per_s":   pt.medianOpsPerSec(),
		"untraced_ops":       pu.ops,
		"traced_ops":         pt.ops,
	}
	ctx["replay_ops"] = len(rp.ops)
	ctx["spans_file"] = spanPath
	ctx["spans"] = len(spans)
	return result{
		Correct:   chk.ok(),
		Attempted: pu.ops + pt.ops,
		Failed:    pu.failed + pt.failed,
		Metrics:   metrics(perLayer, vals),
	}, ctx, nil
}
