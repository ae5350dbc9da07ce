// Command hmcsimd serves the simulator as a service: an HTTP/JSON API
// that accepts declarative scenario.Specs (or names from the built-in
// library), schedules them on the shared worker pool under the global
// core budget, and fronts every run with a content-addressed result
// cache — identical queries are answered from cached bytes in
// microseconds instead of re-simulating.
//
// Endpoints:
//
//	GET  /healthz              liveness + cache stats + engine version
//	GET  /v1/scenarios         the scenario library
//	POST /v1/run               synchronous single run (429 when saturated)
//	POST /v1/sweep             synchronous parameter sweep sharing the cache
//	POST /v1/jobs              async sweep; returns a job handle
//	GET  /v1/jobs/{id}         job state + progress snapshot
//	GET  /v1/jobs/{id}/result  finished job's sweep response
//	GET  /v1/jobs/{id}/events  server-sent progress events
//	DELETE /v1/jobs/{id}       cancel
//
// A request's "options" object is scenario.WireOptions, the JSON form
// of scenario.Options. Inputs scenario.Run would reject get 400
// before anything simulates.
//
// SIGTERM/SIGINT drain gracefully: intake closes, running jobs are
// canceled through the same context plumbing every sweep honors, and
// the process exits 0 once in-flight handlers finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8377", "listen address (use :0 for an ephemeral port; the bound address is printed)")
		cacheEntries  = flag.Int("cache-entries", 4096, "in-memory result cache capacity (entries)")
		cacheDir      = flag.String("cache-dir", "", "optional on-disk result store (survives restarts)")
		maxConcurrent = flag.Int("max-concurrent", 4, "synchronous simulations admitted at once (excess gets 429)")
		jobWorkers    = flag.Int("job-workers", 2, "async job workers")
		jobQueue      = flag.Int("job-queue", 16, "async job queue depth (full queue gets 429)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	)
	flag.Parse()

	if err := run(*addr, serverConfig{
		cacheEntries:  *cacheEntries,
		cacheDir:      *cacheDir,
		maxConcurrent: *maxConcurrent,
		jobWorkers:    *jobWorkers,
		jobQueue:      *jobQueue,
	}, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "hmcsimd:", err)
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so stalled connections cannot pin server
// goroutines; keep-alive idle time is not affected.
const readHeaderTimeout = 10 * time.Second

func run(addr string, cfg serverConfig, drainTimeout time.Duration) error {
	s, err := newServer(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Print the bound address first thing so scripts can start on :0
	// and scrape the real port.
	fmt.Printf("hmcsimd listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: s.handler(), ReadHeaderTimeout: readHeaderTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("hmcsimd draining")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain the job pool first (queued jobs terminate, running sweeps
	// stop at the next cell boundary), so progress streams unblock,
	// then stop accepting and let in-flight handlers finish.
	jerr := s.shutdown(dctx)
	serr := srv.Shutdown(dctx)
	if serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	if jerr != nil {
		return jerr
	}
	fmt.Println("hmcsimd stopped")
	return nil
}
