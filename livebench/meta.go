package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// meta describes one reported metric: its unit, which direction is
// better, and for a layer metric the end-to-end metric it should move.
type meta struct {
	name   string
	unit   string
	better string
	moves  string
}

// endToEnd are the metrics a user of the cluster sees and the benchmark
// gates on. Every workload reports all of them; they always come from
// untraced load phases.
var endToEnd = []meta{
	{name: "setup_s", unit: "s", better: "lower",
		moves: "cluster boot, key Insert, seed writes and warm-up, to the first timed op; median of three set-ups"},
	{name: "ops_per_s", unit: "1/s", better: "higher", moves: "completed client calls per second"},
	{name: "p50_us", unit: "us", better: "lower", moves: "median per-call latency; failed calls count as infinitely slow"},
	{name: "cpu_us_per_op", unit: "us", better: "lower",
		moves: "process user+sys CPU (getrusage) per completed call; the cluster runs in the same process"},
	{name: "watch_p50_us", unit: "us", better: "lower",
		moves: "write issue to the matching (key, version) event on the Watch channel, median"},
}

// tails are reported beside the end-to-end metrics but not gated on: on a
// shared 2-vCPU VM they read the host's scheduling, not the program. A
// vCPU the host deschedules stalls every call on it for a host tick
// (about 4 ms), so p999 sits at that tick on loaded workloads, and when
// the host is contended p99 rises two to five times while p50 and CPU per
// call hold.
var tails = []meta{
	{name: "p99_us", unit: "us", better: "lower", moves: "99th percentile per-call latency"},
	{name: "p999_us", unit: "us", better: "lower", moves: "99.9th percentile per-call latency"},
	{name: "watch_p99_us", unit: "us", better: "lower", moves: "write issue to matching Watch event, 99th percentile"},
}

// perLayer are the traced run's metrics. Replay spans time the
// benchmark's own calls into one package's exported functions over the
// workload's seeded op stream; live counters are deltas of public Stats()
// snapshots and runtime counters over the untraced phase.
var perLayer = []meta{
	{"query.build_ns", "ns", "lower", "cpu_us_per_op on all workloads (query.NewRead/NewWrite/NewCAS)"},
	{"query.build_allocs", "allocs", "lower", "cpu_us_per_op on all workloads"},
	{"query.parse_ns", "ns", "lower", "cpu_us_per_op on config-read (query.ParseReply)"},
	{"query.parse_allocs", "allocs", "lower", "cpu_us_per_op on config-read"},
	{"packet.encode_ns", "ns", "lower", "cpu_us_per_op on config-read (Frame.Serialize)"},
	{"packet.decode_ns", "ns", "lower", "cpu_us_per_op on config-read (Frame.Decode)"},
	{"route.lookup_ns", "ns", "lower", "cpu_us_per_op on config-read (Controller.Route, once per attempt)"},
	{"addrbook.get_ns", "ns", "lower", "cpu_us_per_op on config-read and lock-write (AddressBook.Get)"},
	{"core.read_ns", "ns", "lower", "ops_per_s on config-read; should not move lock-write (Switch.ProcessLocal, tail read)"},
	{"core.read_self_ns", "ns", "lower", "core.read_ns minus its swsim.read_ns child"},
	{"core.write_chain_ns", "ns", "lower",
		"ops_per_s and p50_us on lock-write (ProcessLocal plus ApplyEgressRules on head, mid and tail)"},
	{"core.write_chain_self_ns", "ns", "lower", "core.write_chain_ns minus its three swsim.commit_ns children"},
	{"swsim.read_ns", "ns", "lower", "child of core.read (Pipeline.ReadLatestFor)"},
	{"swsim.commit_ns", "ns", "lower", "child of core.write_chain, one per hop (Pipeline.Commit)"},
	{"relay.ingest_ns", "ns", "lower", "watch_p50_us on watch-latency (relay.Core.Ingest)"},
	{"watch.apply_ns", "ns", "lower", "watch_p50_us on watch-latency (watch.Sub.ApplyEvent)"},
	{"udp.rtt_floor_us", "us", "lower", "kernel floor under p50_us on watch-latency (bare loopback ping-pong median)"},
	{"client.datagrams_per_op", "count", "lower", "cpu_us_per_op; ClientStats.Sent per call, ideal 1"},
	{"client.retries_per_op", "count", "lower", "p99_us and failed calls, mostly on lock-write"},
	{"client.late_per_op", "count", "lower", "p99_us and failed calls, mostly on lock-write"},
	{"client.timeouts", "count", "lower", "failed calls, mostly on lock-write"},
	{"client.failed_frac", "ratio", "lower", "failed calls over attempted calls in the untraced phase"},
	{"relay.events_per_write", "count", "lower",
		"watch_p50_us on watch-latency; on lock-write the cost of events nobody subscribes to"},
	{"relay.fanout_per_event", "count", "lower", "watch_p50_us on watch-latency"},
	{"watch.events_per_write", "ratio", "higher", "delivered Watch events over acked writes: the share not coalesced"},
	{"process.allocs_per_op", "allocs", "lower", "cpu_us_per_op on config-read and lock-write"},
	{"process.gc_cycles", "count", "lower", "p99_us and p999_us"},
	{"process.gc_pause_us", "us", "lower", "p99_us and p999_us"},
	{"waterfall.attributed_frac", "ratio", "higher",
		"summed replay self time per op (weighted by calls per op) over cpu_us_per_op; the rest is sockets, scheduling and hand-off"},
	{"trace.overhead_frac", "ratio", "lower", "1 - traced ops_per_s / untraced ops_per_s"},
}

func metricMeta(list []meta) map[string]any {
	out := make(map[string]any, len(list))
	for _, m := range list {
		out[m.name] = map[string]string{"unit": m.unit, "better": m.better, "moves": m.moves}
	}
	return out
}

// metrics turns measured values into the result map, insisting that each
// listed metric was measured exactly once.
func metrics(list []meta, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok {
			panic("livebench: metric not measured: " + m.name)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(vals) != len(list) {
		panic("livebench: measured metrics outside the list")
	}
	return out
}

// checkBenchmarkFile insists that the benchmark's declaration at the
// repository root lists exactly these workloads and metrics, with the
// same units and directions, so the two cannot drift apart.
func checkBenchmarkFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if len(decl.Workloads) != len(specs) {
		return fmt.Errorf("%s lists %d workloads, the benchmark runs %d", path, len(decl.Workloads), len(specs))
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			return fmt.Errorf("%s workload %d (%s) differs from the benchmark's", path, i, w.Name)
		}
	}
	for _, pair := range []struct {
		kind string
		decl []struct{ Name, Unit, Better string }
		list []meta
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(pair.decl) != len(pair.list) {
			return fmt.Errorf("%s lists %d %s metrics, the benchmark reports %d", path, len(pair.decl), pair.kind, len(pair.list))
		}
		for i, d := range pair.decl {
			m := pair.list[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				return fmt.Errorf("%s %s metric %d is %s (%s, %s); the benchmark reports %s (%s, %s)",
					path, pair.kind, i, d.Name, d.Unit, d.Better, m.name, m.unit, m.better)
			}
		}
	}
	return nil
}
