// Command ohmserve runs the OHMiner query service: an HTTP server that
// answers hypergraph-pattern-mining queries over one data hypergraph,
// with plan caching, per-request timeouts/limits, admission control,
// expvar metrics, pprof, and graceful drain on SIGINT/SIGTERM.
//
//	ohmserve -dataset SB -addr :8080
//	ohmserve -input data.hg -max-concurrent 16 -timeout 5s
//	ohmserve -dataset SB -cluster -cluster-dir state -local-worker
//
//	curl -s localhost:8080/query -d '{"pattern": "0 1 2; 2 3 4"}'
//	curl -s localhost:8080/cluster/jobs -d '{"id": "j1", "pattern": "0 1 2; 2 3 4"}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/debug/vars
//
// Long runs are durable cluster jobs: -cluster mounts the coordinator,
// -cluster-dir makes it WAL-backed, and -local-worker mines its jobs
// in-process with one cluster worker speaking the same lease protocol as a
// remote ohmworker.
//
// On SIGINT/SIGTERM the local worker (if any) stops first and reports its
// unfinished remainder to the coordinator, then the listener closes,
// in-flight queries drain (each bounded by its own deadline) up to -drain,
// anything still running after that is cancelled through the engine's
// context path, and finally the coordinator's WAL is closed.
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

	"ohminer"
	"ohminer/internal/cluster"
	"ohminer/internal/engine"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ohmserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		input      = flag.String("input", "", "data hypergraph file (text format)")
		dataset    = flag.String("dataset", "", "generate a Table 3 preset instead of reading a file (CH,CP,SB,HB,WT,TC,CD,AM,SYN)")
		maxConc    = flag.Int("max-concurrent", 0, "queries mining at once before admission queues (0 = 2×GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-query timeout (requests may lower or raise it up to -max-timeout)")
		maxTimeout = flag.Duration("max-timeout", 2*time.Minute, "cap on per-request timeouts")
		maxLimit   = flag.Uint64("max-limit", 0, "cap on per-request embedding limits (0 = uncapped)")
		workers    = flag.Int("workers", 0, "engine workers per query (0 = GOMAXPROCS)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight queries")
		debugDelay = flag.Duration("debug-delay", 0, "inject artificial latency per query, and per embedding the -local-worker mines (drain/smoke testing only)")
		streamDir  = flag.String("stream-dir", "", "enable the streaming subsystem (/streams endpoints): persist stream specs and snapshots here")
		streamSnap = flag.Int("stream-snapshot-every", 1, "stream snapshot cadence in applied batches (1 = every batch, the strongest durability)")
		streamBuf  = flag.Int("stream-buf-events", 0, "per-subscriber event buffer before slow-consumer drops (0 = 64)")
		clusterOn  = flag.Bool("cluster", false, "run as distributed-mining coordinator (/cluster endpoints; pair with ohmworker)")
		parts      = flag.Int("cluster-parts", 16, "task partitions per distributed job (more parts = finer reassignment granularity)")
		leaseTTL   = flag.Duration("lease-ttl", 10*time.Second, "cluster lease deadline: a worker missing heartbeats this long forfeits its task")
		clusterDir = flag.String("cluster-dir", "", "make the coordinator durable: WAL + snapshot of cluster state here, replayed on restart so running jobs survive a coordinator crash")
		localWork  = flag.Bool("local-worker", false, "mine cluster jobs in-process: run one cluster worker against this server's own address (requires -cluster)")
	)
	flag.Parse()

	var (
		h   *hypergraph.Hypergraph
		err error
	)
	switch {
	case *input != "" && *dataset != "":
		return fmt.Errorf("-input and -dataset are mutually exclusive")
	case *input != "":
		h, err = hypergraph.Load(*input)
	case *dataset != "":
		var p gen.Preset
		if p, err = gen.PresetByTag(*dataset); err == nil {
			h, err = gen.Generate(p.Config)
		}
	default:
		return fmt.Errorf("need -input FILE or -dataset TAG")
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "ohmserve: data:", h)

	store := ohminer.NewStore(h)
	fmt.Fprintf(os.Stderr, "ohmserve: dal built in %v (%.1f MB)\n",
		store.BuildTime().Round(time.Millisecond), float64(store.MemoryBytes())/(1<<20))

	cfg := serve.Config{
		MaxConcurrent:       *maxConc,
		DefaultTimeout:      *timeout,
		MaxTimeout:          *maxTimeout,
		MaxLimit:            *maxLimit,
		Workers:             *workers,
		DebugDelay:          *debugDelay,
		StreamDir:           *streamDir,
		StreamSnapshotEvery: *streamSnap,
		StreamBufEvents:     *streamBuf,
	}
	if *streamDir != "" {
		if err := os.MkdirAll(*streamDir, 0o755); err != nil {
			return fmt.Errorf("stream dir: %w", err)
		}
		// The stream smoke test parses this line.
		fmt.Fprintf(os.Stderr, "ohmserve: streams durable in %s (snapshot every %d batches)\n",
			*streamDir, *streamSnap)
	}
	if *clusterOn {
		coord, err := cluster.New(store, cluster.Config{
			LeaseTTL: *leaseTTL,
			Parts:    *parts,
			Dir:      *clusterDir,
		})
		if err != nil {
			return fmt.Errorf("cluster coordinator: %w", err)
		}
		defer coord.Close()
		cfg.Cluster = coord
		fmt.Fprintf(os.Stderr, "ohmserve: cluster coordinator enabled (parts=%d, lease-ttl=%v)\n", *parts, *leaseTTL)
		if *clusterDir != "" {
			st := coord.Status()
			// The smoke test parses this line after a coordinator restart.
			fmt.Fprintf(os.Stderr, "ohmserve: cluster state durable in %s (replayed jobs=%d, resurrected leases=%d)\n",
				*clusterDir, st.ReplayedJobs, st.ResurrectedLeases)
		}
	} else if *clusterDir != "" || *localWork {
		return fmt.Errorf("-cluster-dir and -local-worker require -cluster")
	}
	srv := serve.New(ohminer.NewSession(store), cfg)

	// Catch SIGINT/SIGTERM before announcing the address: a signal sent
	// once the server is observably up must start the drain, not kill the
	// process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The smoke test parses this line to discover the port chosen for :0.
	fmt.Fprintf(os.Stderr, "ohmserve: listening on %s\n", ln.Addr())

	var stopWorker func()
	if *localWork {
		if stopWorker, err = startLocalWorker(store, ln.Addr(), *workers, *debugDelay); err != nil {
			return err
		}
	}

	hs := &http.Server{Handler: srv.Handler()}
	// Long-lived event subscriptions (SSE) would hold Shutdown open past
	// its drain budget; disconnect them as soon as the drain begins.
	// Subscribers reconnect with ?after=N and lose nothing.
	hs.RegisterOnShutdown(srv.DisconnectStreams)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	if stopWorker != nil {
		// The local worker reports its in-flight task's partial count and
		// unfinished remainder over HTTP, so it drains while the listener
		// still serves; the coordinator WAL-logs the remainder, and a
		// restart on the same -cluster-dir leases it again.
		fmt.Fprintln(os.Stderr, "ohmserve: stopping the local worker")
		stopWorker()
	}
	fmt.Fprintf(os.Stderr, "ohmserve: shutting down, draining in-flight queries (budget %v)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		// Drain budget exceeded: cancel the miners through the engine's
		// context path, then close the remaining connections.
		fmt.Fprintln(os.Stderr, "ohmserve: drain budget exceeded, cancelling in-flight queries")
		srv.Abort()
		if cerr := hs.Close(); cerr != nil && !errors.Is(err, context.DeadlineExceeded) {
			return cerr
		}
		return err
	}
	// The deferred coord.Close runs after this return: the WAL outlives
	// every handler that could still append to it.
	fmt.Fprintln(os.Stderr, "ohmserve: drained cleanly, bye")
	return nil
}

// startLocalWorker runs one cluster worker in-process against the server's
// own listen address (loopback when it listens on a wildcard), speaking the
// same lease, heartbeat and report protocol as a remote ohmworker. A
// positive throttle sleeps that long per mined embedding (smoke testing).
// The returned stop cancels the worker and waits until it has reported its
// in-flight task.
func startLocalWorker(store *ohminer.Store, addr net.Addr, workers int, throttle time.Duration) (stop func(), err error) {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return nil, err
	}
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	cfg := cluster.WorkerConfig{
		Coordinator: "http://" + net.JoinHostPort(host, port),
		Name:        "local",
		Store:       store,
		Engine:      engine.Options{Workers: workers},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ohmserve: local worker: "+format+"\n", args...)
		},
	}
	if throttle > 0 {
		cfg.OnEmbedding = func([]uint32) { time.Sleep(throttle) }
	}
	w, err := cluster.NewWorker(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ohmserve: local worker stopped:", err)
		}
	}()
	return func() { cancel(); <-done }, nil
}
