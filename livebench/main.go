// Command livebench is the repository benchmark: it boots a live NetChain
// cluster on loopback UDP (four switches, three-replica chains, the
// controller and the push-watch relay, all in this process), drives it
// through the public netchain API with a closed-loop load, checks every
// answer, and prints a JSON context line followed by the JSON result line.
//
//	livebench --workload config-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics instead: it times an untraced and a traced load phase,
// snapshots the public Stats() counters, then replays the workload's
// seeded op stream through each internal layer's exported functions and
// writes every span to --out. Run it through run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// deadline bounds one workload's run, so a hung cluster fails the run
// instead of stalling it.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "config-read, lock-write, watch-latency, or all")
	seed := flag.Int64("seed", 1, "seed for keys, values and op streams")
	seconds := flag.Float64("seconds", 10, "measured seconds per load phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and spans")
	out := flag.String("out", ".bench_build/livebench", "directory for span and result files")
	flag.Parse()

	run := []spec{}
	if *name == "all" {
		run = specs
	} else if sp, ok := specByName(*name); ok {
		run = []spec{sp}
	}
	if len(run) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "livebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := checkBenchmarkFile("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(2)
	}
	time.AfterFunc(time.Duration(len(run))*deadline, func() {
		fmt.Fprintf(os.Stderr, "livebench: run exceeded %v per workload\n", deadline)
		os.Exit(3)
	})
	dur := time.Duration(*seconds * float64(time.Second))
	correct := true
	for _, sp := range run {
		correct = runOne(sp, *seed, dur, *trace, *out) && correct
	}
	if !correct {
		os.Exit(1)
	}
}

// runOne measures one workload and prints its context line, then its
// result line (the last line for a single workload).
func runOne(sp spec, seed int64, dur time.Duration, trace int, out string) bool {
	var (
		res result
		ctx map[string]any
		err error
	)
	if trace == 1 {
		res, ctx, err = runTraced(sp, seed, dur, out)
	} else {
		res, ctx, err = runEndToEnd(sp, seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	whys := map[string]string{}
	for _, s := range specs {
		whys[s.name] = s.why
	}
	ctx["host"] = hostFacts()
	ctx["workload"] = map[string]any{"name": sp.name, "seed": seed, "seconds": dur.Seconds()}
	ctx["workloads_why"] = whys
	ctx["end_to_end_meta"] = metricMeta(endToEnd)
	ctx["tails_meta"] = metricMeta(tails)
	ctx["per_layer_meta"] = metricMeta(perLayer)

	line, err := json.Marshal(res)
	if err != nil { // a metric with no samples reads NaN
		fmt.Fprintf(os.Stderr, "livebench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	full, _ := json.Marshal(map[string]any{"context": ctx, "result": res})
	if err := os.MkdirAll(out, 0o755); err == nil {
		path := filepath.Join(out, fmt.Sprintf("result-%s-seed%d-trace%d.json", sp.name, seed, trace))
		_ = os.WriteFile(path, append(full, '\n'), 0o644) // a convenience copy; stdout carries the result
	}
	ctxLine, _ := json.Marshal(map[string]any{"context": ctx})
	fmt.Println(string(ctxLine))
	fmt.Println(string(line))
	return res.Correct
}

func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"link":       "loopback, not a real link",
		"cluster":    "4 switches, 3-replica chains, controller and relay, all in the load process",
	}
}
