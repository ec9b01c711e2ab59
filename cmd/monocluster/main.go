// Command monocluster is the sharded monocled control plane: N replica
// services each own a deterministic slice of the switch fleet (rendezvous
// hashing on switch id), and one coordinator re-exposes them as a single
// aggregated HTTP surface — merged /alerts and /sweeps streams in a
// deterministic global order, federated /metrics with replica-labelled
// series, and a cluster-aware /healthz that names degraded shards.
//
// Two membership modes:
//
//	monocluster -replicas 3 -state-dir /var/lib/monocle
//	    spawn mode: runs 3 in-process replicas (shard-0..shard-2) on
//	    consecutive ports next to the coordinator, each with its own
//	    WAL under <state-dir>/<shard>, resumed on start.
//
//	monocluster -join shard-0=http://10.0.0.7:8866,shard-1=http://10.0.0.8:8866
//	    join mode: fronts already-running monocled replicas. Names are
//	    the shard identities — keep them stable across restarts or the
//	    whole fleet reshards.
//
// The aggregated surface speaks the same API as a single monocled:
//
//	curl -X POST :8866/switches -d '{"id":1}'      # routed to the owner
//	curl :8866/shards                              # the live shard map
//	curl :8866/alerts                              # merged global stream
//	curl :8866/healthz                             # per-replica health
//
// On SIGINT/SIGTERM spawn-mode replicas drain their in-flight rounds and
// every HTTP server shuts down gracefully.
//
// The coordinator keeps no cached health view: routing a mutation, a
// fleet-wide sweep or policy update, and every GET /healthz or /readyz
// probe the replicas' /readyz live, so a replica that dies or comes back
// is seen on the very next request.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"monocle"
)

func main() {
	var (
		listen   = flag.String("listen", ":8866", "coordinator HTTP listen address")
		replicas = flag.Int("replicas", 0, "spawn mode: run this many in-process replicas (shard-0..shard-N-1)")
		repHost  = flag.String("replica-host", "127.0.0.1", "spawn mode: host replicas bind to")
		repBase  = flag.Int("replica-base-port", 8871, "spawn mode: first replica port (shard-i listens on base+i)")
		join     = flag.String("join", "", "join mode: comma-separated name=url static membership of running monocled replicas")
		interval = flag.Duration("interval", 2*time.Second, "spawn mode: steady-state sweep interval per replica")
		workers  = flag.Int("workers", 0, "spawn mode: per-replica solver-worker budget (0 = all CPUs)")
		debounce = flag.Int("debounce", 1, "spawn mode: consecutive failing sweeps before a rule alert")
		stateDir = flag.String("state-dir", "", "spawn mode: per-shard WAL directories under <dir>/<shard>; replicas resume from them on start")
	)
	flag.Parse()
	if (*replicas > 0) == (*join != "") {
		log.Fatal("monocluster: exactly one of -replicas (spawn) or -join (front) is required")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var specs []monocle.ReplicaSpec
	var wg sync.WaitGroup
	var servers []*http.Server

	if *replicas > 0 {
		for i := 0; i < *replicas; i++ {
			name := fmt.Sprintf("shard-%d", i)
			opts := []monocle.Option{
				monocle.WithWorkers(*workers),
				monocle.WithSteadyInterval(*interval),
				monocle.WithDebounce(*debounce),
			}
			if *stateDir != "" {
				opts = append(opts, monocle.WithStateDir(*stateDir+"/"+name))
			}
			svc := monocle.NewService(opts...)
			defer svc.Close()
			if *stateDir != "" {
				if err := svc.Resume(ctx); err != nil {
					log.Printf("monocluster %s resume (continuing): %v", name, err)
				}
			}
			addr := fmt.Sprintf("%s:%d", *repHost, *repBase+i)
			srv := newServer(addr, svc.Handler())
			servers = append(servers, srv)
			go func(name string) {
				if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
					log.Fatalf("monocluster %s: %v", name, err)
				}
			}(name)
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if err := svc.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
					log.Printf("monocluster %s run: %v", name, err)
				}
			}(name)
			specs = append(specs, monocle.ReplicaSpec{Name: name, URL: "http://" + addr})
			log.Printf("monocluster replica %s on %s", name, addr)
		}
	} else {
		for _, part := range strings.Split(*join, ",") {
			name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				log.Fatalf("monocluster: -join entry %q is not name=url", part)
			}
			specs = append(specs, monocle.ReplicaSpec{Name: name, URL: url})
		}
	}

	coord, err := monocle.NewCoordinator(monocle.ClusterConfig{Replicas: specs})
	if err != nil {
		log.Fatalf("monocluster: %v", err)
	}
	defer coord.Close()

	srv := newServer(*listen, coord.Handler())
	go func() {
		log.Printf("monocluster coordinator on %s fronting %d replicas", *listen, len(specs))
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("monocluster: %v", err)
		}
	}()

	<-ctx.Done()
	log.Print("monocluster draining")
	wg.Wait() // spawn-mode replicas finish their in-flight rounds
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range append(servers, srv) {
		if err := s.Shutdown(shutdownCtx); err != nil {
			log.Printf("monocluster shutdown: %v", err)
		}
	}
}

// newServer returns an HTTP server with header-read and keep-alive idle
// timeouts, so a slow or idle client cannot pin a connection forever.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}
