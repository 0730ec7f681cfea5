// Command recpartd runs a band-join worker: it listens for RPC connections
// from a coordinator (cmd/bandjoin -cluster host:port,...), receives partition
// data, executes local band-joins on request, and reports the results.
//
// Usage:
//
//	recpartd -listen :7070 -name worker-1
//	GOMAXPROCS=4 recpartd -listen :7070
//	recpartd -listen :7070 -max-retained 16
//	recpartd -listen :7070 -drain-timeout 60s
//	recpartd -listen :7070 -metrics-addr :9090
//
// The worker joins each query's partitions on a pool of GOMAXPROCS
// goroutines; set the GOMAXPROCS environment variable to give it fewer cores.
//
// With -metrics-addr the worker serves its observability surface over HTTP:
// /metrics (Prometheus text format: load/join counters, retained bytes, pool
// occupancy, latency histograms), /debug/vars (expvar JSON), and
// /debug/pprof/* (live profiling).
//
// Every shipment is joined at the end of its own stream. Besides one-shot
// shipments, the worker keeps a retained-plan registry serving engine queries
// (bandjoin.Engine): the partitions a first query's stream ships stay
// resident — presorted, with prebuilt join structures — under their plan
// fingerprint, sealed at the stream's end, so repeated queries join with zero
// shuffle bytes.
// -max-retained caps the plans that registry holds: a seal past the cap evicts
// the least recently sealed others, never one still being shipped (coordinators
// reshuffle an evicted plan transparently if it is queried again).
//
// On SIGINT or SIGTERM the worker shuts down gracefully: it stops accepting
// connections, rejects new shipments and Join work (coordinators see the
// refusals as clean errors and fail over), drains the work in flight for up to
// -drain-timeout, logs the retained-plan count it is taking down, and exits 0.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bandjoin/internal/cluster"
	"bandjoin/internal/obs"
)

func main() {
	var (
		listen       = flag.String("listen", ":7070", "TCP address to listen on")
		name         = flag.String("name", "", "worker name reported to the coordinator (default: hostname)")
		maxRetained  = flag.Int("max-retained", 0, "cap on resident retained plans (engine warm-partition cache); exceeding it evicts the least-recently-sealed plan, and coordinators transparently reshuffle evicted plans (default: unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGINT/SIGTERM shutdown waits for in-flight shipments and Join RPCs to finish before exiting anyway (0 waits indefinitely)")
		metricsAddr  = flag.String("metrics-addr", "", "HTTP address serving /metrics (Prometheus), /debug/vars (expvar), and /debug/pprof (empty disables)")
	)
	flag.Parse()

	workerName := *name
	if workerName == "" {
		hn, err := os.Hostname()
		if err != nil {
			hn = "worker"
		}
		workerName = hn
	}

	w := cluster.NewWorker(workerName)
	w.SetMaxRetained(*maxRetained)

	if *metricsAddr != "" {
		addr, stop, err := obs.Serve(*metricsAddr, w.Metrics())
		if err != nil {
			log.Fatalf("recpartd: metrics listener on %s: %v", *metricsAddr, err)
		}
		defer stop()
		log.Printf("recpartd: metrics on http://%s/metrics", addr)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("recpartd: listening on %s: %v", *listen, err)
	}
	log.Printf("band-join worker %s listening on %s", workerName, ln.Addr())

	done := make(chan error, 1)
	go func() { done <- cluster.Serve(w, ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			log.Fatalf("recpartd: %v", err)
		}
	case sig := <-sigs:
		log.Printf("recpartd: received %v, draining (timeout %v)", sig, *drainTimeout)
		// Stop accepting first; connections already established keep being
		// served until their in-flight calls drain (new data-plane calls on
		// them are rejected by the draining gate).
		ln.Close()
		if w.Drain(*drainTimeout) {
			log.Printf("recpartd: drained cleanly, shutting down with %d retained plans resident", w.Retained())
		} else {
			log.Printf("recpartd: drain timeout elapsed with work in flight, shutting down with %d retained plans resident", w.Retained())
		}
	}
}
