// Command serve runs the HTTP serving layer: named ontologies held hot in
// memory behind JSON endpoints, answering queries over lock-free published
// snapshots while each write request runs as one incrementally maintained
// mutation.
//
// Usage:
//
//	serve -addr :8080 -rules ont.rules -data ont.data
//
// preloads the rules/data as ontology "default"; further ontologies can be
// created over the wire:
//
//	curl -X PUT  localhost:8080/v1/ontologies/demo --data-binary @program.rules
//	curl -X POST localhost:8080/v1/ontologies/demo/query \
//	     -d '{"query": "q(X) :- person(X) ."}'
//	curl -X POST 'localhost:8080/v1/ontologies/demo/facts?timeout=250ms' \
//	     -d '{"facts": "person(carol) ."}'
//
// Every request runs under a deadline — ?timeout= per request, clamped by
// -max-timeout, defaulting to -default-timeout — threaded through the
// context-first ontology API: an expired query returns 504 mid-join, an
// expired mutation publishes none of its changes. SIGINT/SIGTERM
// drain in-flight requests before exiting.
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

	"repro"
	"repro/internal/cliflags"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	rulesPath := flag.String("rules", "", "optional .rules file preloaded as ontology \"default\"")
	dataPath := flag.String("data", "", "optional .data file loaded with -rules")
	defaultTimeout := flag.Duration("default-timeout", 5*time.Second, "deadline for requests without ?timeout= (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "upper clamp on any request deadline (0 = unclamped)")
	maxConcurrent := flag.Int("max-concurrent", 0, "cap on requests executing at once (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "requests allowed to wait for a slot before shedding with 429 (with -max-concurrent)")
	cacheBytes := flag.Int64("cache", repro.DefaultAnswerCacheBytes, "answer-view cache budget in bytes (0 = disabled)")
	shared := cliflags.Bind(flag.CommandLine)
	flag.Parse()

	opts := shared.Options(repro.ModeAuto)
	if *cacheBytes <= 0 {
		*cacheBytes = -1 // Config: negative disables, zero means the default
	}
	srv := server.New(server.Config{
		DefaultTimeout:   *defaultTimeout,
		MaxTimeout:       *maxTimeout,
		Answer:           opts,
		AnswerCacheBytes: *cacheBytes,
		MaxConcurrent:    *maxConcurrent,
		MaxQueue:         *maxQueue,
	})
	if *rulesPath != "" {
		var ont *repro.Ontology
		var err error
		if *dataPath != "" {
			ont, err = repro.ParseFiles(*rulesPath, *dataPath)
		} else {
			ont, err = repro.ParseFiles(*rulesPath)
		}
		if err != nil {
			cliflags.Fatal(err)
		}
		srv.Add("default", ont)
		fmt.Fprintf(os.Stderr, "loaded %q as ontology \"default\": %d rules, %d facts\n",
			*rulesPath, ont.Rules().Len(), ont.Data().Size())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cliflags.Fatal(err)
	}
	// Print the bound address (not the flag): with -addr :0 the kernel picks
	// the port, and scripts scrape this line to find it.
	fmt.Fprintf(os.Stderr, "serving on %s\n", ln.Addr())
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		errc <- httpSrv.Serve(ln)
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		cliflags.Fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "received %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			cliflags.Fatal(fmt.Errorf("shutdown: %w", err))
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			cliflags.Fatal(err)
		}
		fmt.Fprintln(os.Stderr, "drained cleanly")
	}
}
