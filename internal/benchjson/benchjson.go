// Package benchjson defines the machine-readable benchmark artifact the
// CI perf gate consumes (BENCH.json): per-scenario throughput and tail
// latency, with comparison logic enforcing a regression tolerance.
//
// Simulator scenarios are simulated-time quantities — identical across
// machines and reruns of the same code, so their gate tolerance only has
// to absorb intentional modelling changes. Real-UDP scenarios measure
// wall-clock throughput and vary with the machine; they carry a
// per-scenario tolerance (Result.Tol) wide enough that only a collapse —
// a lock back on the read path, a wedged ingest loop — trips the gate,
// not CI runner jitter.
package benchjson

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// Result is one scenario's measurement.
type Result struct {
	Scenario  string  `json:"scenario"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	// Tol widens the gate tolerance for this scenario when set (0.6 =
	// tolerate a 60% regression before failing): used by wall-clock
	// scenarios whose absolute numbers are machine-dependent. The
	// baseline entry's value governs the comparison.
	Tol float64 `json:"tol,omitempty"`
	// TolP99 further widens only the p99 gate (effective p99 tolerance
	// is max(gate, Tol, TolP99)). Wall-clock tail latency needs more
	// headroom than throughput: on a busy runner a single preemption or
	// GC pause lands a multi-millisecond spike in the tail, and the
	// faster the steady-state p99, the larger that spike is in relative
	// terms. A real read-path collapse still trips the throughput gate.
	TolP99 float64 `json:"tol_p99,omitempty"`
	// Optional marks a scenario whose presence depends on the machine
	// (e.g. per-GOMAXPROCS read-scaling points capped at the core
	// count): Compare still gates it when both sides have it, but its
	// absence from current results is not a violation — a baseline
	// regenerated on a big machine must not wedge a smaller CI runner.
	Optional bool `json:"optional,omitempty"`
}

// File is the artifact layout.
type File struct {
	// Note documents provenance (command line, determinism caveats).
	Note    string   `json:"note,omitempty"`
	Results []Result `json:"results"`
}

// Write stores f at path, indented for reviewable diffs.
func Write(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// archivePattern matches archived artifacts: BENCH_<n>.json.
var archivePattern = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// Archive stores f under dir as BENCH_<n>.json, where n is one past the
// highest index already present — each gated benchrunner run appends to
// the series, so the perf trajectory across PRs stays reconstructible
// from the repo history alone. Returns the path written.
func Archive(dir string, f File) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	next := 1
	for _, e := range entries {
		m := archivePattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		var n int
		fmt.Sscanf(m[1], "%d", &n)
		if n >= next {
			next = n + 1
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next))
	if err := Write(path, f); err != nil {
		return "", err
	}
	return path, nil
}

// Load reads a File from path.
func Load(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return f, nil
}

// Compare gates cur against base: every baseline scenario must still
// exist, its throughput must not fall more than the tolerance below
// baseline, and its p99 must not rise more than the tolerance above
// baseline (tol 0.2 = 20%). A baseline entry with a larger per-scenario
// Tol widens its own gate — wall-clock scenarios declare their machine
// variance this way. The returned strings describe each violation; empty
// means the gate passes. Scenarios only present in cur are ignored —
// adding coverage is never a regression.
func Compare(base, cur File, tol float64) []string {
	curBy := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		curBy[r.Scenario] = r
	}
	var violations []string
	for _, b := range base.Results {
		eff := tol
		if b.Tol > eff {
			eff = b.Tol
		}
		c, ok := curBy[b.Scenario]
		if !ok {
			if !b.Optional {
				violations = append(violations,
					fmt.Sprintf("%s: scenario missing from current results", b.Scenario))
			}
			continue
		}
		if b.OpsPerSec > 0 && c.OpsPerSec < b.OpsPerSec*(1-eff) {
			violations = append(violations,
				fmt.Sprintf("%s: throughput %.0f ops/s is %.1f%% below baseline %.0f (tolerance %.0f%%)",
					b.Scenario, c.OpsPerSec, 100*(1-c.OpsPerSec/b.OpsPerSec), b.OpsPerSec, 100*eff))
		}
		effP99 := eff
		if b.TolP99 > effP99 {
			effP99 = b.TolP99
		}
		if b.P99us > 0 && c.P99us > b.P99us*(1+effP99) {
			violations = append(violations,
				fmt.Sprintf("%s: p99 %.1fµs is %.1f%% above baseline %.1fµs (tolerance %.0f%%)",
					b.Scenario, c.P99us, 100*(c.P99us/b.P99us-1), b.P99us, 100*effP99))
		}
	}
	return violations
}

// FormatComparison renders a benchstat-style old-vs-new table of every
// scenario present in either file — the artifact CI uploads so a perf
// shift is reviewable without rerunning anything.
func FormatComparison(base, cur File) string {
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Scenario] = r
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %14s %14s %8s   %10s %10s %8s\n",
		"scenario", "old ops/s", "new ops/s", "delta", "old p99µs", "new p99µs", "delta")
	seen := make(map[string]bool, len(cur.Results))
	row := func(b, c Result, haveBase, haveCur bool) {
		num := func(ok bool, v float64) string {
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.0f", v)
		}
		delta := func(old, new float64) string {
			if old <= 0 || !haveBase || !haveCur {
				return "-"
			}
			return fmt.Sprintf("%+.1f%%", 100*(new/old-1))
		}
		name := b.Scenario
		if !haveBase {
			name = c.Scenario
		}
		fmt.Fprintf(&sb, "%-24s %14s %14s %8s   %10s %10s %8s\n",
			name,
			num(haveBase, b.OpsPerSec), num(haveCur, c.OpsPerSec), delta(b.OpsPerSec, c.OpsPerSec),
			num(haveBase, b.P99us), num(haveCur, c.P99us), delta(b.P99us, c.P99us))
	}
	for _, c := range cur.Results {
		seen[c.Scenario] = true
		b, ok := baseBy[c.Scenario]
		row(b, c, ok, true)
	}
	for _, b := range base.Results {
		if !seen[b.Scenario] {
			row(b, Result{}, true, false)
		}
	}
	return sb.String()
}
