// Command ppaserved is the tuning-job daemon: internal/serve behind a TCP
// listener. Clients submit tuning jobs over the JSON API, watch per-unit
// progress over SSE (or the ?poll=1 long-poll fallback), and fetch golden
// versus learned Pareto fronts per job.
//
//	ppaserved -state /var/lib/ppatuner -addr 127.0.0.1:8324
//
// All job state is persisted under -state, which is created if it does not
// exist (a first boot): the process can be killed — gracefully or with
// SIGKILL — and restarted against the same directory, and every
// interrupted job resumes to byte-identical results. SIGINT/SIGTERM drain
// gracefully: running campaigns stop at the next evaluator call or breaker
// pause and park, subscribed event streams get a terminal shutdown event,
// and the HTTP listener closes only after in-flight requests finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ppatuner/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8324", "listen address")
	state := flag.String("state", "", "durable state directory (required; created if missing)")
	maxActive := flag.Int("max-active", 1, "concurrent campaigns")
	workers := flag.Int("workers", 1, "default per-campaign unit concurrency")
	rate := flag.Float64("rate", 0, "per-client submissions per second (0 disables rate limiting)")
	burst := flag.Int("burst", 5, "per-client submission burst")
	retain := flag.Duration("retain", 0, "garbage-collect done/failed/cancelled jobs and their checkpoints after this long in a terminal state (0 keeps everything)")
	quiet := flag.Bool("q", false, "suppress progress logging")
	flag.Parse()
	if *state == "" {
		fmt.Fprintln(os.Stderr, "ppaserved: -state is required")
		flag.Usage()
		os.Exit(2)
	}
	log.SetFlags(0)
	cfg := serve.Config{
		StateDir:    *state,
		MaxActive:   *maxActive,
		UnitWorkers: *workers,
		Rate:        *rate,
		Burst:       *burst,
		Retain:      *retain,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	if err := run(cfg, *addr); err != nil {
		log.Fatalf("ppaserved: %v", err)
	}
}

func run(cfg serve.Config, addr string) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("ppaserved: serving on %s (state %s)", addr, cfg.StateDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Shutdown()
		return err
	case got := <-sig:
		log.Printf("ppaserved: %v: draining (campaigns park at the next evaluator call)", got)
		// Park campaigns and terminate event streams first, then close the
		// listener: SSE handlers exit on the drain signal, so the HTTP
		// shutdown's wait for in-flight requests completes promptly.
		srv.Shutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("http shutdown: %w", err)
		}
		log.Printf("ppaserved: drained; state is durable under %s", cfg.StateDir)
		return nil
	}
}
