package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/resultcache"
	"repro/internal/server"
	"repro/internal/stats"
)

// The serve-mix traffic follows the parameter-sweep use the repository
// documents for the server (EXPERIMENTS.md, "Server-side sweeps"): one
// /v1/batch per grid point, re-swept and widened sweeps served from the
// result cache, and identical points submitted at the same time computed
// once. serveClients sweep drivers share one server. In every round both
// sweep the same window of sweepWindow grid points, oldest first and one
// point at a time (a closed loop: each waits for a point's reports before
// posting the next). The window slides by sweepNew points a round, so its
// last sweepNew points are new and the others were swept in earlier
// rounds.
const (
	serveClients  = 2
	sweepWindow   = 8
	sweepNew      = 2
	gridPoints    = 2000 // distinct points a run can sweep; see maxRounds
	serveLaunches = 15   // server starts timed for setup_s
)

// maxRounds is how many rounds fit in the grid. A run that reaches it
// ends early rather than repeat a point; at the round times this
// benchmark was set up on that is about five times the rounds a 20 s run
// holds.
const maxRounds = (gridPoints-sweepWindow)/sweepNew + 1

// sweepGrid maps a grid point to the specs of its batch: fig6 and
// security at parameters no other point of the run shares. Consecutive
// points jump across the parameter ranges (797 is prime to 2000, 1021 to
// 2048), so every stretch of a run costs about the same; the seed picks
// where in the ranges a run starts.
type sweepGrid struct{ off6, offSec int }

func newSweepGrid(seed uint64) sweepGrid {
	return sweepGrid{off6: int(splitmix(seed, 0) % 2000), offSec: int(splitmix(seed, 1) % 2048)}
}

func (g sweepGrid) point(k int) []server.Spec {
	i := (g.off6 + 797*k) % 2000
	j := (g.offSec + 1021*k) % 2048
	return []server.Spec{
		{Experiment: "fig6", Params: experiments.Params{Samples: 1000 + i}},
		{Experiment: "security", Params: experiments.Params{Bits: 32 + j%64, Trials: 8 + j/64}},
	}
}

// window returns the points both clients sweep in round r: from first up
// to end, of which the points from fresh on are new.
func window(r int) (first, fresh, end int) {
	first = r * sweepNew
	end = first + sweepWindow
	return first, end - sweepNew, end
}

// pointKind says what a swept point should find in the server's cache.
type pointKind uint8

const (
	kindPrewarm pointKind = iota // first sweep of a window's old points, before the rounds: computed
	kindOld                      // swept in an earlier round: cache hits
	kindNew                      // new this round, swept by both clients at once: computed once
)

var kindNames = [...]string{"prewarm", "old", "new"}

// jobResult is one spec of a swept point as the client saw it.
type jobResult struct {
	key    string        // specID
	ok     bool          // stream and report answered 200
	same   bool          // report equal to the first seen for its spec
	source string        // X-Swiftdir-Cache of the report: hit, miss or dedup
	wallNS int64         // X-Swiftdir-Wall-Ns: the job's time in the worker
	runNS  int64         // X-Swiftdir-Run-Wall-Ns: the producing run's compute time
	report time.Duration // latency of the report fetch
}

// pointResult is one swept grid point: a batch post, then each job
// followed to completion and its report fetched.
type pointResult struct {
	kind     pointKind
	accepted bool          // 202 with one job per spec
	latency  time.Duration // the whole point
	post     time.Duration // the batch post alone
	requests int
	jobs     []jobResult
}

func specID(s server.Spec) string {
	b, _ := json.Marshal(s) // plain data: cannot fail
	return string(b)
}

// serverProc is one launched swiftdir-serve process.
type serverProc struct {
	cmd     *exec.Cmd
	pid     string
	base    string // http://host:port
	logDone chan struct{}
	log     bytes.Buffer // stderr after the listening line
}

// launch starts the server with a scrubbed environment, an explicit job
// count and a fresh disk cache, and returns once /healthz answers 200,
// with the time that took from exec.
func launch(bin, cacheDir string, extra ...string) (*serverProc, time.Duration, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-cachedir", cacheDir, "-j", "1", "-shards", "1", "-workers", strconv.Itoa(serveClients)}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = []string{} // no SWIFTDIR_JOBS / SWIFTDIR_SHARDS / GOMAXPROCS from the caller
	// The kernel kills the server if this process dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &serverProc{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.logDone)
		sc := bufio.NewScanner(stderr)
		listening := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !listening {
				addr <- strings.Fields(line[i+len("listening on "):])[0]
				listening = true
				continue
			}
			p.log.WriteString(line + "\n")
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-p.logDone:
		p.stop()
		return nil, 0, fmt.Errorf("server exited before listening: %s", p.log.String())
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, 0, errors.New("server did not start listening within 60s")
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(p.base + "/healthz")
	if err != nil {
		p.stop()
		return nil, 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.stop()
		return nil, 0, fmt.Errorf("healthz: %s", resp.Status)
	}
	return p, time.Since(start), nil
}

// stop drains the server with SIGTERM (killing it if the drain hangs)
// and waits for it to exit.
func (p *serverProc) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.logDone:
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill()
		<-p.logDone
	}
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("server exit: %v: %s", err, p.log.String())
	}
	return nil
}

// client is the sweep drivers' HTTP state.
type client struct {
	hc   *http.Client
	base string
}

func (c *client) post(path string, body any) (*http.Response, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

func (c *client) get(path string) (*http.Response, []byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

// bodies keeps the first report body seen per spec; later bodies are
// compared with it as they arrive, and after the run every first body is
// compared with an in-process run of the same experiment.
type bodies struct {
	mu      sync.Mutex
	first   map[string][]byte
	specs   map[string]server.Spec
	refused int
}

// add records a report body for spec s and says whether it equals the
// first body seen for s.
func (bs *bodies) add(key string, s server.Spec, body []byte) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	f, ok := bs.first[key]
	if !ok {
		bs.first[key] = append([]byte(nil), body...)
		bs.specs[key] = s
		return true
	}
	return bytes.Equal(f, body)
}

// sweepPoint posts one grid point's batch, follows each job to completion
// and fetches its report.
func (c *client) sweepPoint(specs []server.Spec, kind pointKind, bs *bodies) pointResult {
	start := time.Now()
	pr := pointResult{kind: kind, requests: 1}
	resp, body, err := c.post("/v1/batch", map[string]any{"specs": specs})
	pr.post = time.Since(start)
	var acc struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err != nil || resp.StatusCode != http.StatusAccepted {
		if resp != nil && resp.StatusCode == http.StatusTooManyRequests {
			bs.mu.Lock()
			bs.refused++
			bs.mu.Unlock()
		}
	} else if json.Unmarshal(body, &acc) == nil && len(acc.Jobs) == len(specs) {
		pr.accepted = true
	}
	if !pr.accepted {
		pr.latency = time.Since(start)
		return pr
	}
	for i, j := range acc.Jobs {
		jr := jobResult{key: specID(specs[i])}
		// The stream endpoint returns once the job is terminal, so this
		// waits for completion without a polling interval.
		resp, _, err := c.get("/v1/jobs/" + j.ID + "/stream")
		pr.requests++
		if err == nil && resp.StatusCode == http.StatusOK {
			t0 := time.Now()
			resp, rep, err := c.get("/v1/jobs/" + j.ID + "/report")
			jr.report = time.Since(t0)
			pr.requests++
			if err == nil && resp.StatusCode == http.StatusOK {
				jr.ok = true
				jr.same = bs.add(jr.key, specs[i], rep)
				jr.source = resp.Header.Get("X-Swiftdir-Cache")
				jr.wallNS, _ = strconv.ParseInt(resp.Header.Get("X-Swiftdir-Wall-Ns"), 10, 64)
				jr.runNS, _ = strconv.ParseInt(resp.Header.Get("X-Swiftdir-Run-Wall-Ns"), 10, 64)
			}
		}
		pr.jobs = append(pr.jobs, jr)
	}
	pr.latency = time.Since(start)
	return pr
}

// servePhase is one server's share of a run.
type servePhase struct {
	walls    []time.Duration
	rssMB    float64 // the server's peak RSS while the rounds ran
	prewarm  []pointResult
	points   []pointResult
	requests int
	stats    struct {
		Cache stats.CacheSnapshot `json:"cache"`
		Jobs  int                 `json:"jobs"`
	}
}

// prewarmPhase sweeps the old points of round next's window once, from
// one client, so that a fresh server starts the rounds with the cache a
// sweep in progress would have.
func prewarmPhase(c *client, grid sweepGrid, next int, bs *bodies) []pointResult {
	var out []pointResult
	first, fresh, _ := window(next)
	for k := first; k < fresh; k++ {
		out = append(out, c.sweepPoint(grid.point(k), kindPrewarm, bs))
	}
	return out
}

func newClient(p *serverProc) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
			Timeout:   120 * time.Second,
		},
		base: p.base,
	}
}

// runPhase pre-warms a launched server, then sweeps rounds until budget is
// spent or limit rounds have run, and reads /statsz at the end.
func runPhase(p *serverProc, grid sweepGrid, next *int, limit int, budget time.Duration, bs *bodies, tr *tracer) (*servePhase, error) {
	c := newClient(p)
	defer c.hc.CloseIdleConnections()
	ph := &servePhase{prewarm: prewarmPhase(c, grid, *next, bs)}
	var mu sync.Mutex
	rss := startRSSSampler(p.pid)
	ph.walls = loopRounds(budget, limit, func() time.Duration {
		first, fresh, end := window(*next)
		*next++
		var wg sync.WaitGroup
		start := time.Now()
		roundSpan := tr.add("round", 0, start, start)
		for w := 0; w < serveClients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := first; k < end; k++ {
					kind := kindOld
					if k >= fresh {
						kind = kindNew
					}
					t0 := time.Now()
					pr := c.sweepPoint(grid.point(k), kind, bs)
					mu.Lock()
					ph.points = append(ph.points, pr)
					ph.requests += pr.requests
					tr.add("point "+kindNames[kind], roundSpan, t0, t0.Add(pr.latency))
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		tr.end(roundSpan, start.Add(wall))
		return wall
	})
	rssMB, err := rss.finish()
	if err != nil {
		return nil, err
	}
	ph.rssMB = rssMB

	resp, body, err := c.get("/statsz")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statsz: %s", resp.Status)
	}
	if err := json.Unmarshal(body, &ph.stats); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	return ph, nil
}

// fixedAlloc measures what a server allocates outside the rounds: start-up,
// the pre-warm of the first window and the drain. It launches a server
// that does only that and reads its heap profile.
func fixedAlloc(b *bench, grid sweepGrid, dir string, bs *bodies) (float64, time.Duration, error) {
	heapPath := filepath.Join(dir, "fixed.heap")
	p, d, err := launch(b.serveBin, filepath.Join(dir, "cache-fixed"), "-memprofile", heapPath)
	if err != nil {
		return 0, 0, err
	}
	c := newClient(p)
	pre := prewarmPhase(c, grid, 0, bs)
	c.hc.CloseIdleConnections()
	if err := p.stop(); err != nil {
		return 0, 0, err
	}
	for _, pr := range pre {
		b.check(pr.accepted, "fixed-cost server: batch refused or malformed")
		for _, j := range pr.jobs {
			b.check(j.ok && j.same && j.source == "miss", "fixed-cost server, point %s: answered %v, cache %q, same as first %v",
				j.key, j.ok, j.source, j.same)
		}
	}
	n, err := heapAllocBytes(heapPath)
	return n, d, err
}

func runServeMix(b *bench) error {
	dir, err := os.MkdirTemp(b.outDir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cacheDir := func(i int) string { return filepath.Join(dir, fmt.Sprintf("cache%d", i)) }

	// Set-up: exec until /healthz answers, over several launches.
	var setups []time.Duration
	for i := 0; i < serveLaunches; i++ {
		p, d, err := launch(b.serveBin, cacheDir(i))
		if err != nil {
			return err
		}
		setups = append(setups, d)
		if err := p.stop(); err != nil {
			return err
		}
	}

	grid := newSweepGrid(b.seed)
	bs := &bodies{first: map[string][]byte{}, specs: map[string]server.Spec{}}
	fixedBytes, d, err := fixedAlloc(b, grid, dir, bs)
	if err != nil {
		return err
	}
	setups = append(setups, d)

	next := 0
	untracedBudget, tracedBudget := b.halves()
	limit := maxRounds // per phase; a traced run has two
	if b.traced {
		limit = maxRounds / 2
	}

	// The measured server writes a heap profile on exit; its alloc_space
	// column is what the server allocated, which this process cannot see.
	heapPath := filepath.Join(dir, "server.heap")
	p, d, err := launch(b.serveBin, cacheDir(serveLaunches), "-memprofile", heapPath)
	if err != nil {
		return err
	}
	setups = append(setups, d)
	plain, err := runPhase(p, grid, &next, limit, untracedBudget, bs, nil)
	if stopErr := p.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	allocBytes, err := heapAllocBytes(heapPath)
	if err != nil {
		return err
	}

	var traced *servePhase
	var prof *cpuProfile
	if b.traced {
		profPath := filepath.Join(dir, "server.pprof")
		p, _, err := launch(b.serveBin, cacheDir(serveLaunches+1), "-cpuprofile", profPath)
		if err != nil {
			return err
		}
		tr := newTracer()
		traced, err = runPhase(p, grid, &next, limit, tracedBudget, bs, tr)
		if stopErr := p.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return err
		}
		if err := tr.write(fmt.Sprintf("%s/spans-%s-%d.json", b.outDir, b.workload, b.seed)); err != nil {
			return err
		}
		prof = loadCPUProfile(profPath)
	}

	checkSweeps(b, bs, plain, traced)

	jobsPerRound := float64(serveClients * sweepWindow * len(grid.point(0)))
	var walls, rates []float64
	for _, w := range plain.walls {
		walls = append(walls, w.Seconds())
		rates = append(rates, jobsPerRound/w.Seconds())
	}
	b.set("wall_s", median(walls))
	b.set("setup_s", median(seconds(setups)))
	b.set("peak_rss_mb", plain.rssMB)
	b.set("work_per_s", median(rates))
	b.set("alloc_mb", (allocBytes-fixedBytes)/(1<<20)/float64(len(plain.walls)))
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix seed %d: %d rounds untraced (%d requests), %d distinct specs checked, fixed allocation %.1f MB\n",
		b.seed, len(plain.walls), plain.requests, len(bs.first), fixedBytes/(1<<20))
	if b.traced {
		setServeLayers(b, grid, plain, traced, bs, prof)
	}
	return nil
}

// checkSweeps counts every job once: failed when its stream or report
// did not answer 200, when its report differs from the first seen for
// its spec or from the report the same experiment renders in this
// process, or when the cache answered otherwise than the sweep implies
// (pre-warm points computed, old points hit, new points computed by
// exactly one of the two clients and hit or deduplicated by the other).
// Each server must also have run exactly the specs it was the first to
// see.
func checkSweeps(b *bench, bs *bodies, phases ...*servePhase) {
	bad := map[string]bool{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan string)
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				s := bs.specs[k]
				e, ok := experiments.Lookup(s.Experiment)
				if !ok || e.Run(s.Params) != string(bs.first[k]) {
					mu.Lock()
					bad[k] = true
					mu.Unlock()
				}
			}
		}()
	}
	for k := range bs.first {
		work <- k
	}
	close(work)
	wg.Wait()

	for _, ph := range phases {
		if ph == nil {
			continue
		}
		misses := map[string]int{} // per new spec
		computed := 0
		for _, pr := range append(append([]pointResult(nil), ph.prewarm...), ph.points...) {
			if !pr.accepted {
				b.check(false, "%s point: batch refused or malformed", kindNames[pr.kind])
				continue
			}
			for _, j := range pr.jobs {
				var want bool
				switch pr.kind {
				case kindPrewarm:
					want = j.source == "miss"
					computed++
				case kindOld:
					want = j.source == "hit"
				case kindNew:
					want = j.source == "miss" || j.source == "dedup" || j.source == "hit"
					if j.source == "miss" {
						misses[j.key]++
					}
					if _, seen := misses[j.key]; !seen {
						misses[j.key] = 0
					}
				}
				b.check(j.ok && j.same && !bad[j.key] && want,
					"%s point %s: answered %v, cache %q, same as first %v, same as in-process %v",
					kindNames[pr.kind], j.key, j.ok, j.source, j.same, !bad[j.key])
			}
		}
		for k, n := range misses {
			b.check(n == 1, "new spec %s computed %d times", k, n)
			computed++
		}
		b.check(ph.stats.Cache.Runs == uint64(computed), "server ran %d specs, %d were new to it", ph.stats.Cache.Runs, computed)
	}
}

func setServeLayers(b *bench, grid sweepGrid, plain, traced *servePhase, bs *bodies, prof *cpuProfile) {
	points := func(ph *servePhase, k pointKind, f func(pointResult) float64) []float64 {
		var xs []float64
		for _, pr := range ph.points {
			if pr.kind == k && pr.accepted {
				xs = append(xs, f(pr))
			}
		}
		return xs
	}
	jobs := func(ph *servePhase, source string, f func(jobResult) float64) []float64 {
		var xs []float64
		for _, pr := range ph.points {
			for _, j := range pr.jobs {
				if j.ok && j.source == source {
					xs = append(xs, f(j))
				}
			}
		}
		return xs
	}
	latMS := func(pr pointResult) float64 { return float64(pr.latency) / float64(time.Millisecond) }
	var walls, tWalls []float64
	var total time.Duration
	for _, w := range plain.walls {
		walls = append(walls, w.Seconds())
		total += w
	}
	for _, w := range traced.walls {
		tWalls = append(tWalls, w.Seconds())
	}
	hits := points(plain, kindOld, latMS)
	misses := points(plain, kindNew, latMS)
	b.set("rounds", float64(len(plain.walls)+len(traced.walls)))
	b.set("trace.overhead_s", median(tWalls)-median(walls))
	b.set("serve_rps", ratio(float64(plain.requests), total.Seconds()))
	b.set("hit.samples", float64(len(hits)))
	b.set("hit_p50_ms", median(hits))
	b.set("hit_p99_ms", percentile(hits, 99))
	b.set("miss.samples", float64(len(misses)))
	b.set("miss_p50_ms", median(misses))
	b.set("miss_p90_ms", percentile(misses, 90))

	b.set("http.transport_p50_ms", median(jobs(traced, "hit", func(j jobResult) float64 {
		return float64(j.report) / float64(time.Millisecond)
	})))
	b.set("server.hit_wall_p50_us", median(jobs(traced, "hit", func(j jobResult) float64 { return float64(j.wallNS) / 1e3 })))
	b.set("batch.p50_ms", median(points(traced, kindOld, func(pr pointResult) float64 {
		return float64(pr.post) / float64(time.Millisecond)
	})))
	b.set("experiments.run_p50_ms", median(jobs(traced, "miss", func(j jobResult) float64 { return float64(j.runNS) / 1e6 })))
	b.set("server.jobs_end", float64(traced.stats.Jobs))
	b.set("server.refused", float64(bs.refused))
	cs := traced.stats.Cache
	b.set("resultcache.hits", float64(cs.Hits))
	b.set("resultcache.misses", float64(cs.Misses))
	b.set("resultcache.runs", float64(cs.Runs))
	b.set("resultcache.dedups", float64(cs.Dedups))
	get, newKey := timeResultCache(grid, bs)
	b.set("resultcache.get_us", get)
	b.set("resultcache.newkey_us", newKey)
	prof.report(b)
}

// timeResultCache times the result cache's two per-request calls
// directly in this process: a memory Get of a stored entry and NewKey of
// a swept spec, over the specs of the first window. Each figure is the
// median over batches of calls.
func timeResultCache(grid sweepGrid, bs *bodies) (getUS, newKeyUS float64) {
	var specs []server.Spec
	for k := 0; k < sweepWindow; k++ {
		specs = append(specs, grid.point(k)...)
	}
	c := resultcache.New(len(specs), "", nil, func(string, ...any) {})
	var ids []resultcache.ID
	for _, s := range specs {
		key, err := resultcache.NewKey(s.Experiment, s.Params)
		if err != nil {
			continue
		}
		c.Put(&resultcache.Entry{Key: key, Report: bs.first[specID(s)]})
		ids = append(ids, key.ID())
	}
	const batches, per = 31, 2000
	var gets, keys []float64
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		for j := 0; j < per; j++ {
			c.Get(ids[j%len(ids)])
		}
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/per/1e3)
		t0 = time.Now()
		for j := 0; j < per/10; j++ {
			s := specs[j%len(specs)]
			resultcache.NewKey(s.Experiment, s.Params)
		}
		keys = append(keys, float64(time.Since(t0).Nanoseconds())/(per/10)/1e3)
	}
	return median(gets), median(keys)
}
