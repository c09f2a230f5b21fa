// Command vserved is the VirtualSync optimization-as-a-service daemon:
// it serves the extract→LP→legalize→discretize pipeline behind an
// HTTP/JSON API with a bounded job queue, a content-hash result cache,
// NDJSON progress streaming and Prometheus metrics.
//
//	POST   /v1/jobs             submit a netlist + library + params
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status and result
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events NDJSON progress stream
//	GET    /metrics             Prometheus text format
//	GET    /healthz             liveness
//	GET    /debug/pprof/...     runtime profiles (only with -pprof)
//
// Usage:
//
//	vserved [-addr :8080] [-workers n] [-queue n] [-cache n]
//	        [-job-timeout 5m] [-drain-timeout 30s] [-lib file] [-pprof]
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"virtualsync"
	"virtualsync/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "optimization worker pool size (0: GOMAXPROCS)")
	queue := flag.Int("queue", 64, "pending-job queue capacity")
	cacheEntries := flag.Int("cache", 256, "result-cache capacity in entries")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "default per-job deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	libPath := flag.String("lib", "", "default cell library file (default: built-in vs45)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default: the profiles leak operational detail)")
	flag.Parse()

	lib, err := loadLib(*libPath)
	if err != nil {
		log.Fatalf("vserved: %v", err)
	}
	cfg := service.Config{
		Workers:      *workers,
		QueueCap:     *queue,
		CacheEntries: *cacheEntries,
		JobTimeout:   *jobTimeout,
		Lib:          lib,
	}

	// The service gets a background base context: a signal must stop
	// intake and drain, not cancel in-flight pipelines outright.
	srv := service.New(context.Background(), cfg)
	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("vserved: pprof endpoints enabled under /debug/pprof/")
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("vserved: listening on %s (queue %d, cache %d entries, job timeout %v)",
		*addr, *queue, *cacheEntries, *jobTimeout)
	select {
	case err := <-errc:
		log.Fatalf("vserved: %v", err)
	case <-sigCtx.Done():
	}

	log.Printf("vserved: draining (budget %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("vserved: forced drain: %v", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("vserved: http shutdown: %v", err)
	}
	log.Printf("vserved: bye")
}

func loadLib(path string) (*virtualsync.Library, error) {
	if path == "" {
		return virtualsync.DefaultLibrary(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return virtualsync.LoadLibrary(f)
}
