// Command swiftdir-serve runs the simulation-as-a-service front end: an
// HTTP server that executes registry experiments on the shared campaign
// machinery and memoizes every report in a content-addressed result
// cache. Identical requests are answered from cache (byte-identical to a
// re-run — the repo's determinism guarantee makes that sound), and
// identical requests *in flight* collapse into one simulation.
//
// Usage:
//
//	swiftdir-serve [-addr host:port] [-cachedir dir] [-cachemem n]
//	               [-workers n] [-queue n] [-j n] [-shards n]
//	               [-job-timeout d] [-bundledir dir]
//
// Quickstart:
//
//	swiftdir-serve -addr :8080 -cachedir /var/tmp/swiftdir-cache &
//	curl -s -XPOST localhost:8080/v1/run -d '{"experiment":"table5"}'
//	curl -s -XPOST localhost:8080/v1/batch \
//	     -d '{"specs":[{"experiment":"fig6"},{"experiment":"security","params":{"bits":64}}]}'
//	curl -s localhost:8080/v1/jobs/j1
//	curl -s localhost:8080/statsz
//
// SIGTERM/SIGINT drain gracefully: intake stops (healthz flips to 503 so
// a load balancer rotates the instance out), queued jobs finish, cache
// hits keep being served to the end, and the cache accounting footer is
// printed to stderr on the way out. If the -drainwait budget expires
// first, in-flight simulations are aborted mid-run via their cancel
// tokens; aborted jobs fail with a typed cancellation and never reach
// the cache.
//
// Deadlines: -job-timeout bounds every compute (0 = unbounded); a
// request's "timeout_ms" spec field overrides it per job. A run that
// exceeds its deadline — or whose client disconnects — aborts at the
// next simulated event and the request fails 504 (deadline) or 499
// (client gone) with {"kind":"cancelled"}. Diverging runs (simulator
// panics) fail 500 with {"kind":"diverged"} and, when -bundledir is
// set, a replayable crash bundle.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/prof"
	"repro/internal/resultcache"
	"repro/internal/server"
	"repro/internal/stats"
)

// Connection timeouts. A client gets readHeaderTimeout to finish sending
// its request headers, and an idle keep-alive connection is closed after
// idleTimeout, so slow or abandoned clients cannot pin connections
// forever. Bodies and responses are not bounded here: a run's compute
// time is governed by -job-timeout and the per-request timeout_ms.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the API handler in the server's connection policy.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (shutdown signal, args, streams,
// exit code) made explicit so tests can boot a real server on a loopback
// port and drain it by cancelling ctx.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swiftdir-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	cacheDir := fs.String("cachedir", "", "result-cache directory (empty = memory only)")
	cacheMem := fs.Int("cachemem", 1024, "in-memory result-cache entries (LRU)")
	workers := fs.Int("workers", 2, "batch worker pool size")
	queue := fs.Int("queue", 64, "bounded job queue depth (back-pressure beyond it)")
	jobs := fs.Int("j", 0, "concurrent simulation jobs per experiment (0 = $SWIFTDIR_JOBS, else NumCPU)")
	shards := fs.Int("shards", 0, "event-engine shards per machine, 1..64 (0 = $SWIFTDIR_SHARDS, else 1)")
	drainWait := fs.Duration("drainwait", 30*time.Second, "graceful-drain budget on SIGTERM (past it, in-flight jobs abort)")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-job compute deadline (0 = unbounded; timeout_ms in a spec overrides)")
	bundleDir := fs.String("bundledir", "", "directory for crash bundles of diverging runs (empty = disabled)")
	var pf prof.Flags
	pf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "swiftdir-serve: "+format+"\n", a...)
	}

	stopProf, err := pf.Start()
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			logf("profile: %v", err)
		}
	}()

	nshards, err := campaign.ResolveShards(*shards)
	if err != nil {
		logf("%v", err)
		fs.Usage()
		return 2
	}
	campaign.SetWorkers(*jobs)
	campaign.SetShards(nshards)
	defer campaign.SetWorkers(0)
	defer campaign.SetShards(0)

	st := &stats.CacheStats{}
	cache := resultcache.New(*cacheMem, *cacheDir, st, logf)
	srv := server.New(server.Config{
		Cache:      cache,
		Workers:    *workers,
		QueueDepth: *queue,
		JobTimeout: *jobTimeout,
		BundleDir:  *bundleDir,
		Logf:       logf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("%v", err)
		return 1
	}
	httpSrv := newHTTPServer(srv.Handler())
	logf("listening on %s (cache: mem=%d dir=%q, workers=%d, queue=%d)",
		ln.Addr(), *cacheMem, *cacheDir, *workers, *queue)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	code := 0
	select {
	case err := <-serveErr:
		logf("serve: %v", err)
		code = 1
	case <-ctx.Done():
		// Drain order: stop intake first (healthz flips to 503, batches are
		// refused) so a load balancer rotates us out while queued jobs
		// finish and cache hits keep flowing, then close the listener.
		logf("draining (budget %s)", *drainWait)
		dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			logf("%v", err)
			code = 1
		}
		if err := httpSrv.Shutdown(dctx); err != nil {
			logf("shutdown: %v", err)
			code = 1
		}
	}
	logf("%s", st.Snapshot().Footer())
	return code
}
