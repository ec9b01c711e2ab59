// Command monocled is the long-running Monocle fleet service: an HTTP
// control surface over a monocle.Fleet of switch Backends — simulated
// data planes (backend "sim") or live TCP OpenFlow 1.0 switches fronted
// by the library's proxy driver (backend "proxy") — with the cross-epoch
// diff engine turning every sweep into alerts, delivered through
// pluggable sinks (-alert-webhook, -alert-log, the in-memory ring behind
// GET /alerts).
//
//	monocled -listen :8866 -interval 2s -debounce 2 \
//	         -alert-webhook http://pager.example/hook
//
// Lifecycle (see the README's "Running monocled" section for a full curl
// session):
//
//	curl -X POST :8866/switches -d '{"id":1}'
//	curl -X POST :8866/switches -d \
//	     '{"id":2,"backend":"proxy","address":"10.0.0.5:6653"}'  # live switch
//	curl -X POST :8866/switches/1/rules -d '{"op":"add","rule":{...}}'
//	curl -X POST :8866/switches/1/rules \
//	     -d '{"op":"delete","id":7,"dataplane":"actual"}'   # break hardware
//	curl :8866/alerts                                       # watch it surface
//	curl -H 'Accept: text/plain' :8866/metrics              # Prometheus scrape
//
// On SIGINT/SIGTERM the service drains: the in-flight sweep round
// completes, /healthz reports draining, and the HTTP server shuts down
// gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"monocle"
)

func main() {
	var (
		listen     = flag.String("listen", ":8866", "HTTP listen address")
		interval   = flag.Duration("interval", 2*time.Second, "steady-state sweep interval")
		workers    = flag.Int("workers", 0, "fleet-wide solver-worker budget (0 = all CPUs)")
		debounce   = flag.Int("debounce", 1, "consecutive failing sweeps before a rule alert")
		stall      = flag.Int("stall", 3, "missed sweep rounds before a switch-stalled alert")
		flapWin    = flag.Int("flap-window", 6, "sweep window for verdict-flap detection")
		flapN      = flag.Int("flap-flips", 3, "status flips inside the window that count as flapping")
		ring       = flag.Int("alert-ring", 4096, "alerts retained in memory for GET /alerts")
		webhook    = flag.String("alert-webhook", "", "POST each round's alerts as a JSON array to this URL")
		alertLog   = flag.Bool("alert-log", false, "log one ALERT line per alert on stderr")
		stateDir   = flag.String("state-dir", "", "persist switches, epoch snapshots, and alerts in this directory and resume from it on start")
		reconMin   = flag.Duration("reconnect-min", 100*time.Millisecond, "first proxy-backend reconnect backoff delay")
		reconMax   = flag.Duration("reconnect-max", 15*time.Second, "proxy-backend reconnect backoff cap")
		recordDir  = flag.String("record-dir", "", "record every switch's backend session to <dir>/switch-<id>.trace for deterministic replay (monotrace)")
		policyFile = flag.String("policy", "", "monitoring-policy file: per-group sweep cadences, rule sampling, alert filters (validate with monopolicy)")
	)
	flag.Parse()

	opts := []monocle.Option{
		monocle.WithWorkers(*workers),
		monocle.WithSteadyInterval(*interval),
		monocle.WithDebounce(*debounce),
		monocle.WithStallThreshold(*stall),
		monocle.WithFlapWindow(*flapWin, *flapN),
		monocle.WithAlertSink(monocle.NewRingSink(*ring)),
		monocle.WithReconnectBackoff(*reconMin, *reconMax),
	}
	if *webhook != "" {
		opts = append(opts, monocle.WithAlertSink(monocle.NewWebhookSink(*webhook, nil)))
	}
	if *alertLog {
		opts = append(opts, monocle.WithAlertSink(monocle.NewLogSink(nil)))
	}
	if *stateDir != "" {
		opts = append(opts, monocle.WithStateDir(*stateDir))
	}
	if *recordDir != "" {
		opts = append(opts, monocle.WithRecordDir(*recordDir))
	}
	if *policyFile != "" {
		// A policy named on the command line that fails to parse is an
		// operator typo that should stop the launch, with the source
		// position.
		p, err := monocle.ParsePolicyFile(*policyFile)
		if err != nil {
			log.Fatalf("monocled: -policy %s: %v", *policyFile, err)
		}
		opts = append(opts, monocle.WithPolicy(p))
	}
	svc := monocle.NewService(opts...)
	defer svc.Close()
	if *stateDir != "" {
		if err := svc.Resume(context.Background()); err != nil {
			log.Printf("monocled resume (continuing): %v", err)
		}
	}
	// Header-read and keep-alive idle timeouts: a slow or idle client
	// cannot pin a connection forever.
	srv := &http.Server{Addr: *listen, Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	go func() {
		log.Printf("monocled listening on %s (sweep interval %v)", *listen, *interval)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("monocled: %v", err)
		}
	}()

	err := svc.Run(ctx)
	log.Printf("monocled draining: %v", err)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("monocled shutdown: %v", err)
	}
}
