package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// cpuProfile is a CPU profile of the traced half of a run, taken either
// in this process or, for serve-mix, by the server process.
type cpuProfile struct {
	path      string
	file      *os.File
	shares    map[string]float64 // module -> share of samples, in percent
	runtimeBy map[string]float64 // module -> share of samples charged to malloc_gc or map under it
	total     time.Duration      // CPU time sampled
	err       error
}

// startCPUProfile profiles this process into path until stop.
func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, file: f}, nil
}

// stop ends profiling and attributes the samples.
func (p *cpuProfile) stop() {
	pprof.StopCPUProfile()
	if err := p.file.Close(); err != nil {
		p.err = err
		return
	}
	p.load()
}

// loadCPUProfile attributes the samples of a profile another process
// wrote to path.
func loadCPUProfile(path string) *cpuProfile {
	p := &cpuProfile{path: path}
	p.load()
	return p
}

func (p *cpuProfile) load() {
	out, err := pprofTool("-traces", p.path)
	if err != nil {
		p.err = err
		return
	}
	traces, err := parseTraces(out)
	if err != nil {
		p.err = err
		return
	}
	p.shares, p.runtimeBy, p.total = attribute(traces)
}

// report sets every prof.* metric; a missing profile reads 0 and is a
// failed check.
func (p *cpuProfile) report(b *bench) {
	if p == nil || p.err != nil {
		var err error
		if p != nil {
			err = p.err
		}
		b.problem("cpu profile: %v", err)
		return
	}
	b.set("prof.cpu_s", p.total.Seconds())
	for m, pct := range p.shares {
		b.set("prof."+m+"_pct", pct)
	}
	var by []string
	for _, m := range profModules {
		if pct := p.runtimeBy[m]; pct >= 0.5 {
			by = append(by, fmt.Sprintf("%s %.1f%%", m, pct))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: malloc_gc and map samples by the repository module calling them: %s\n",
		b.workload, strings.Join(by, ", "))
}

// pprofTool runs `go tool pprof` on a profile file with the given output
// option and returns what it prints. Its home and scratch directories are
// the profile's own directory, so it reads and writes nothing else, and
// symbolization is off: Go profiles carry their function names.
func pprofTool(option, path string) ([]byte, error) {
	dir := filepath.Dir(path)
	cmd := exec.Command("go", "tool", "pprof", "-symbolize=none", option, path)
	cmd.Env = append(os.Environ(), "HOME="+dir, "PPROF_TMPDIR="+dir, "PPROF_BINARY_PATH="+dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s %s: %v: %s", option, path, err, stderr.String())
	}
	return out, nil
}

// trace is one distinct stack of a CPU profile, leaf first, with the CPU
// time sampled in it.
type trace struct {
	cpu   time.Duration
	stack []string
}

// parseTraces reads the output of `go tool pprof -traces`: a header, then
// one block per distinct stack, each opened by a dashed separator line.
// A block's first line holds the sampled time and the leaf frame, each
// further line one caller.
func parseTraces(out []byte) ([]trace, error) {
	var traces []trace
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			traces = append(traces, trace{})
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		t := &traces[len(traces)-1]
		if t.stack == nil {
			d, err := parseCPUTime(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: %q: %v", line, err)
			}
			t.cpu = d
			fields = fields[1:]
		}
		if len(fields) > 0 {
			t.stack = append(t.stack, fields[0]) // drop an "(inline)" mark
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(traces) > 0 && traces[len(traces)-1].stack == nil {
		traces = traces[:len(traces)-1] // the closing separator
	}
	return traces, nil
}

// parseCPUTime reads a sampled time as pprof prints it: a Go duration, or
// with pprof's own "mins" and "hrs" units.
func parseCPUTime(s string) (time.Duration, error) {
	s = strings.Replace(strings.Replace(s, "mins", "m", 1), "hrs", "h", 1)
	return time.ParseDuration(s)
}

// attribute splits the sampled CPU time across the repository's
// modules. A sample counts for the module of its leaf frame. When the
// leaf is outside the repository (runtime or standard library), the stack
// is walked towards the root: it counts as malloc_gc if it reaches the
// allocator or the collector, as map if it reaches a Go map operation,
// and otherwise for the first repository frame it reaches. Anything else
// (and the benchmark's own code) counts as other. runtimeBy splits the
// malloc_gc and map samples by the first repository module above them.
func attribute(traces []trace) (shares, runtimeBy map[string]float64, total time.Duration) {
	counts := map[string]time.Duration{}
	callers := map[string]time.Duration{}
	for _, t := range traces {
		n := t.cpu
		total += n
		class := classify(t.stack)
		counts[class] += n
		if class == "malloc_gc" || class == "map" {
			for _, fn := range t.stack {
				if m, ok := repoModule(fn); ok {
					callers[m] += n
					break
				}
			}
		}
	}
	shares = map[string]float64{}
	for _, m := range append(append([]string(nil), profModules...), "malloc_gc", "map", "other") {
		shares[m] = 100 * ratio(float64(counts[m]), float64(total))
	}
	runtimeBy = map[string]float64{}
	for m, n := range callers {
		runtimeBy[m] = 100 * ratio(float64(n), float64(total))
	}
	return shares, runtimeBy, total
}

// classify names the module a stack (leaf first) is charged to.
func classify(stack []string) string {
	for _, fn := range stack {
		if m, ok := repoModule(fn); ok {
			if known(m) {
				return m
			}
			return "other"
		}
		switch {
		case isAllocOrGC(fn):
			return "malloc_gc"
		case isMapOp(fn):
			return "map"
		}
	}
	return "other"
}

func repoModule(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

func known(module string) bool {
	for _, m := range profModules {
		if m == module {
			return true
		}
	}
	return false
}

func isAllocOrGC(fn string) bool {
	for _, p := range []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.makemap", "runtime.newarray", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.GC", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.concatstring", "runtime.slicebytetostring",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isMapOp(fn string) bool {
	return strings.HasPrefix(fn, "runtime.map") || strings.HasPrefix(fn, "internal/runtime/maps.")
}

// heapAllocBytes returns the bytes a process allocated over its life:
// the alloc_space column of the heap profile at path (an estimate from
// the runtime's allocation sampling), summed over the samples that
// `go tool pprof -raw` lists.
func heapAllocBytes(path string) (float64, error) {
	out, err := pprofTool("-raw", path)
	if err != nil {
		return 0, err
	}
	return rawColumnTotal(out, "alloc_space/bytes")
}

// rawColumnTotal sums one value column of `go tool pprof -raw` output.
// The Samples section names the columns on its first line; each sample
// line then holds one integer per column, a colon and its locations.
func rawColumnTotal(out []byte, column string) (float64, error) {
	lines := strings.Split(string(out), "\n")
	col := -1
	var total float64
	for i := 0; i < len(lines); i++ {
		if col < 0 {
			if strings.TrimSpace(lines[i]) == "Samples:" && i+1 < len(lines) {
				for j, name := range strings.Fields(lines[i+1]) {
					if name == column {
						col = j
					}
				}
				if col < 0 {
					return 0, fmt.Errorf("pprof -raw: no %s column in %q", column, lines[i+1])
				}
				i++
			}
			continue
		}
		values, _, ok := strings.Cut(lines[i], ":")
		fields := strings.Fields(values)
		if !ok || len(fields) <= col {
			if len(fields) > 0 && !ok {
				break // the Locations section
			}
			continue
		}
		v, err := strconv.ParseInt(fields[col], 10, 64)
		if err != nil {
			continue // a label line under a sample
		}
		total += float64(v)
	}
	if col < 0 {
		return 0, fmt.Errorf("pprof -raw: no Samples section")
	}
	return total, nil
}
