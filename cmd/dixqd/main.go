// Command dixqd serves a live document catalog over HTTP.
//
// Usage:
//
//	dixqd -addr :8080 -doc auction.xml=auction.xml -doc d2=other.dixq
//
// Endpoints (docs/API.md is the full reference):
//
//	GET    /healthz       liveness
//	GET    /docs          loaded documents + catalog version
//	GET    /docs/{name}   one document's info
//	PUT    /docs/{name}   load or replace a document (XML body, or ?file=)
//	POST   /docs/{name}   structural update ({"op": ..., "path": [...], "xml": ...})
//	DELETE /docs/{name}   drop a document
//	GET    /metrics       Prometheus text-format metrics
//	GET    /debug/traces  recent sampled query traces (?n=K limits)
//	POST   /query         {"query": "...", "engine": "di-msj"} -> {"xml": ...}
//	POST   /explain       plan description for a query ("analyze": true executes)
//	POST   /sql           the Section 4 SQL translation
//
// The catalog may start empty (no -doc) and be populated over HTTP.
// -max-concurrent, -queue-depth, -queue-timeout, -tenant-concurrent and
// -tenant-membudget configure admission control:
// overload answers 429 with Retry-After instead of piling up goroutines,
// and tenants (the X-Tenant request header) are budgeted independently.
// On SIGINT/SIGTERM the server drains: new requests get 503, in-flight
// requests run to completion within -drain-timeout, then the process
// exits.
//
// -trace-sample N records 1 in every N queries into the /debug/traces
// ring buffer (default 64; 0 disables). -pprof addr serves net/http/pprof
// on a second listener, kept off the query port so profiling endpoints
// are never exposed by accident.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dixq"
	"dixq/internal/cliflags"
	"dixq/internal/server"
)

func main() {
	// The flag set lives in internal/cliflags so the root docs guard can
	// cross-check it against the docs/API.md table.
	cfg := cliflags.Dixqd(flag.CommandLine)
	flag.Parse()

	loaded := map[string]*dixq.Document{}
	for _, binding := range cfg.Docs {
		name, path, ok := strings.Cut(binding, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "dixqd: bad -doc %q, want name=path\n", binding)
			os.Exit(1)
		}
		doc, err := dixq.LoadDocumentFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dixqd: %v\n", err)
			os.Exit(1)
		}
		loaded[name] = doc
		log.Printf("loaded %s from %s (%d nodes)", name, path, doc.Nodes())
	}
	if len(loaded) == 0 {
		log.Printf("starting with an empty catalog; load documents with PUT /docs/{name}")
	}

	if cfg.PprofAddr != "" {
		// The pprof import registered its handlers on DefaultServeMux;
		// this listener is the only place that mux is served.
		go func() {
			log.Printf("pprof on %s", cfg.PprofAddr)
			if err := http.ListenAndServe(cfg.PprofAddr, nil); err != nil {
				log.Fatalf("pprof: %v", err)
			}
		}()
	}

	srv := server.New(loaded, server.Config{
		Timeout:          cfg.Timeout,
		MaxTuples:        cfg.MaxTuples,
		MemBudget:        cfg.MemBudget,
		SpillDir:         cfg.SpillDir,
		TraceSample:      cfg.TraceSample,
		MaxConcurrent:    cfg.MaxConcurrent,
		QueueDepth:       cfg.QueueDepth,
		QueueTimeout:     cfg.QueueTimeout,
		TenantConcurrent: cfg.TenantConcurrent,
		TenantMemBudget:  cfg.TenantMemBudget,
		DocDir:           cfg.DocDir,
	})
	httpSrv := &http.Server{Addr: cfg.Addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", cfg.Addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Graceful drain: admission refuses new requests with 503 while
	// Shutdown waits for in-flight ones, bounded by -drain-timeout.
	log.Printf("draining (up to %s)", cfg.DrainTimeout)
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	// Past the drain timeout, Close cancels the queries still running and
	// waits until they have released their slots and spill files.
	srv.Close()
	log.Printf("drained")
}
