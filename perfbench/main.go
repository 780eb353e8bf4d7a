// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator, the model checker or the swiftdir-serve
// binary for a fixed time, checks every output it gets, and prints one
// JSON result line (see README.md in this directory).
//
// Usage, from the root of a checkout (perfbench/run.sh builds and runs it):
//
//	perfbench --workload spec-o3|mesh-256|mcheck|serve-mix --seed n
//	          --seconds s --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics of untraced
// rounds. With --trace 1 the run spends half its time untraced and half
// traced (spans around every call into a layer, plus a CPU profile) and
// the result holds the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one run shares with its workload function: inputs
// from the command line, the metrics collected so far, and the outcome of
// every correctness check.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	outDir   string // run artefacts, inside the checkout
	serveBin string

	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// check counts one checked operation, failed unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.problem(format, args...)
	}
}

// problem records a failed check that is not itself an operation (a
// digest mismatch, say): the run is then incorrect as a whole.
func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// halves returns the untraced and traced time budgets of the run.
func (b *bench) halves() (untraced, traced time.Duration) {
	if !b.traced {
		return b.budget, 0
	}
	return b.budget / 2, b.budget - b.budget/2
}

// loopRounds runs round until budget is spent: always once, then again
// while another round of median length still fits and, when limit is
// above 0, fewer than limit rounds have run. It returns each round's wall
// time.
func loopRounds(budget time.Duration, limit int, round func() time.Duration) []time.Duration {
	start := time.Now()
	var walls []time.Duration
	for {
		walls = append(walls, round())
		est := time.Duration(median(seconds(walls)) * float64(time.Second))
		if time.Since(start)+est > budget || len(walls) == limit {
			return walls
		}
	}
}

var workloads = map[string]func(*bench) error{
	"spec-o3":   runSpecO3,
	"mesh-256":  runMesh256,
	"mcheck":    runMcheck,
	"serve-mix": runServeMix,
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: spec-o3, mesh-256, mcheck or serve-mix")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration the printed metrics must match")
	outDir := fs.String("out", ".bench_build", "directory for run artefacts (spans, server cache)")
	serveBin := fs.String("serve-bin", ".bench_build/swiftdir-serve", "swiftdir-serve binary for serve-mix")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *trace)
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	// Pin the campaign knobs so neither SWIFTDIR_JOBS nor SWIFTDIR_SHARDS
	// in the environment changes what a run measures.
	campaign.SetWorkers(1)
	campaign.SetShards(1)

	b := &bench{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*secs) * time.Second,
		traced:   *trace == 1,
		outDir:   *outDir,
		serveBin: *serveBin,
		values:   map[string]float64{},
	}
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}

	declared := spec.EndToEnd
	if b.traced {
		declared = spec.PerLayer
	}
	res := result{
		Correct:   b.failed == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range metricDefs {
		if d.e2e == b.traced {
			continue
		}
		v, ok := b.values[d.name]
		if !ok && d.e2e {
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s was not measured\n", b.workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if errs := checkNames(res.Metrics, declared); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: printed metrics do not match %s:\n  %s\n", *specPath, strings.Join(errs, "\n  "))
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", b.workload, p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// splitmix derives independent 64-bit seeds from the benchmark seed.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
