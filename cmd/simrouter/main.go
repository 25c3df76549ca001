// Command simrouter fronts a fleet of simd shards with a stateless
// cluster router (see internal/cluster and the README's "Running a
// cluster" section): consistent-hash placement of content-addressed
// specs with bounded loads, health-probe-driven membership, and hedged
// retries that double as cross-node determinism probes (the only
// hedging path; simd does not hedge its own runs). Cache hits stay sticky on each spec's home shard:
// the bounded-load ceiling only spills a key off a shard that is
// carrying more than its share of in-flight work.
//
// Usage:
//
//	simrouter -addr 127.0.0.1:9000 -shards 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
//	simrouter -shards ... -hedge-after 500ms
//
// Endpoints mirror simd exactly — POST /jobs, GET /jobs/{id},
// /healthz, /metrics — so clients are oblivious to whether they talk
// to one daemon or a cluster.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes and
// in-flight forwards complete before the process exits. The router
// owns no durable state, so killing it loses nothing but connections.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nexsim/internal/cluster"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:9000",
			"listen address (use port 0 for an ephemeral port)")
		shardsFlag = flag.String("shards", "",
			"comma-separated simd shard addresses (host:port), required")
		vnodes = flag.Int("vnodes", 0,
			"virtual nodes per shard on the hash ring (0 = default of 64)")
		loadFactor = flag.Float64("load-factor", 0,
			"bounded-load ceiling factor c (0 = default of 1.25; <= 1 disables bounding)")
		hedgeAfter = flag.Duration("hedge-after", 0,
			"duplicate a wait=true sub-batch on the next replica after this long;\n"+
				"the first answer wins and the loser is byte-compared (0 = off)")
		forwardTimeout = flag.Duration("forward-timeout", 5*time.Minute,
			"cap on one forwarded request; must exceed the shards' wait timeout")
		probeInterval = flag.Duration("probe-interval", time.Second,
			"period between /healthz probes of every shard")
		failThreshold = flag.Int("fail-threshold", 3,
			"consecutive probe failures before a shard is marked down")
		readmitOKs = flag.Int("readmit-oks", 2,
			"consecutive probe successes before a down shard is re-admitted")
		portFile = flag.String("portfile", "",
			"write the bound host:port to this file once listening (for scripts)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute,
			"cap on connection draining during shutdown")
	)
	flag.Parse()

	shards := splitNonEmpty(*shardsFlag)
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "simrouter: -shards is required (comma-separated host:port list)")
		os.Exit(2)
	}

	router, err := cluster.NewRouter(cluster.RouterConfig{
		Shards:         shards,
		VNodes:         *vnodes,
		LoadFactor:     *loadFactor,
		HedgeAfter:     *hedgeAfter,
		ForwardTimeout: *forwardTimeout,
		ProbeInterval:  *probeInterval,
		FailThreshold:  *failThreshold,
		ReadmitOKs:     *readmitOKs,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simrouter:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simrouter:", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "simrouter:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "simrouter: listening on %s, routing to %d shards\n", bound, len(shards))

	router.Start()
	httpSrv := &http.Server{Handler: router.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "simrouter:", err)
		os.Exit(1)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "simrouter: %s — draining\n", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "simrouter: shutdown:", err)
	}
	router.Close()
	if *portFile != "" {
		if err := os.Remove(*portFile); err != nil && !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "simrouter:", err)
		}
	}
	fmt.Fprintln(os.Stderr, "simrouter: drained, exiting")
}

// splitNonEmpty splits a comma list, dropping empty entries so trailing
// commas are harmless.
func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
