// Package monocle is the public API of the Monocle data plane verifier
// (Peresini, Kuzniar, Kostic: "Monocle: Dynamic, Fine-Grained Data Plane
// Monitoring", CoNEXT 2015). It wraps the internal SAT-based probe engine,
// the per-switch proxy Monitor, and the multi-switch sweep service behind
// one importable package; the internal/ packages underneath are private
// implementation detail and may change without notice.
//
// The entry points are:
//
//   - Verifier: single-switch verification. Compile a flow table once,
//     generate a probe for any rule (steady-state monitoring), and build
//     dynamic-update confirmation probes for additions, modifications and
//     deletions. Generation is incremental: repeated probes and sweeps
//     reuse the compiled table library, and table changes recompile only
//     the changed rules.
//
//   - Fleet: multi-switch deployment. Fleet shards its member switches
//     across a bounded solver-worker budget and runs concurrent
//     steady-state sweeps (each switch through its own Verifier session
//     cache), returning one SweepEvent per rule. SweepPlan sweeps
//     per-switch rule subsets on the same clustered engine; Sweep is its
//     every-rule form. Every member has a Verifier: a bare one
//     (AddSwitch) or one paired with a Backend driver (AddBackend).
//
//   - Backend: the switch-driver seam — connect/close the transport,
//     apply rule operations to the data plane, inject and observe probes
//     (ObserveBatch; Observe is a batch of one), and watch lifecycle
//     events. SimBackend drives an in-memory simulated
//     data plane; ProxyBackend is the paper's live deployment, a TCP
//     OpenFlow 1.0 proxy whose Monitor intercepts the controller-switch
//     session (share an event loop and probe routing between backends
//     with a ProxyGroup). Everything above the seam is driver-agnostic.
//
//   - Backend.ObserveBatch: the one probe dataplane. Every driver
//     observes N probes per call — on a ProxyBackend one marshal loop
//     over pooled zero-alloc packet buffers, one event-loop post, and an
//     in-flight window of 64 pipelined wire observations in place of
//     inject→wait→inject. Service.SweepRound observes each switch's
//     sweep as one batch and a rule-op confirmation as a batch of one
//     (BENCH_probe.json records the throughput delta).
//
//   - Service: the long-running monocled fleet service. A Fleet of
//     Backends, the cross-epoch diff engine (Differ) folding every sweep
//     round into typed debounced Alerts, and pluggable alert delivery
//     (Sink: RingSink, LogSink, WebhookSink via WithAlertSink) behind a
//     net/http control surface with JSON and Prometheus metrics.
//
//   - Monitoring policies: a declarative DSL (ParsePolicy /
//     ParsePolicyFile, installed via WithPolicy, Service.SetPolicy, or
//     PUT /policy) that groups switches by tag or
//     ID and sets per-group sweep cadences, confirmation deadlines,
//     seeded rule sampling, Differ threshold overrides, and alert
//     filters. Policies compile against the live fleet into
//     deterministic per-switch ProbePlans (Service.ProbePlans,
//     Policy.Plan) — byte-identical across worker budgets — and
//     Service.Run sweeps each group at its own cadence. cmd/monopolicy
//     checks and explains policies offline.
//
//   - Record/replay: WithRecordDir wraps every switch backend in a
//     RecordBackend capturing the whole session — calls, verdicts,
//     events, epochs — to an append-only trace (CreateTrace /
//     ReadTraceFile); ReplayBackend (SwitchSpec backend "replay", or
//     cmd/monotrace) re-serves a trace deterministically with zero
//     network, failing loudly with a DivergenceError when the replayed
//     session departs from the recording.
//
//   - Cluster: the sharded control plane. A Coordinator (NewCoordinator,
//     ClusterConfig) fronts N monocled replicas, assigns every switch to
//     a replica by rendezvous hashing on its id (ShardMap), routes
//     registrations and rule ops to the owning shard, fans policy
//     updates and sweeps out fleet-wide, and merges the per-replica
//     alert and sweep streams into one deterministic global order —
//     byte-identical to a standalone monocled for a single replica, and
//     across any replica count for the same fleet. Replica failure
//     degrades exactly one shard (ClusterHealth names it); a replica
//     restarted from its state directory rejoins via Resume with no
//     false recoveries. cmd/monocluster spawns or joins the replicas.
//
//   - Scenarios: the adversarial scenario fleet. Scenarios() scripts
//     rule-churn storms, mid-sweep switch flaps, monitor failover,
//     lossy switches, ECMP/multicast tables, and priority shadowing
//     against live TCP switches (StartSwitchServer, the in-process
//     OpenFlow 1.0 testbed switch), each declaring its exact alert
//     sequence and behaving identically across worker budgets.
//
// Quickstart — verify one rule and sweep an 8-switch fleet:
//
//	v, _ := monocle.NewVerifier(monocle.WithProbeTag(1))
//	rule := &monocle.Rule{ID: 1, Priority: 10,
//		Match:   monocle.MatchAll().WithExact(monocle.IPSrc, 10<<24|1),
//		Actions: []monocle.Action{monocle.Output(2)},
//	}
//	p, _ := v.Add(rule) // dynamic-update confirmation probe
//	// inject p.Header; observing p.Present confirms the installation:
//	verdict := monocle.Judge(p, observedPort, observedHeader)
//
//	fleet := monocle.NewFleet(monocle.WithWorkers(8))
//	for id := uint32(1); id <= 8; id++ {
//		sw, _ := fleet.AddSwitch(id)
//		sw.Install(rulesOf(id)...)
//	}
//	for _, ev := range fleet.Sweep(ctx) {
//		fmt.Println(ev.Record()) // one JSON-able record per rule
//	}
//
// The facade exports the monitor: the vocabulary types callers genuinely
// need (Rule, Match, Header, Probe, Verdict, statistics), the drivers
// that embed the proxy Monitor (ProxyBackend, ProxyGroup), the OpenFlow
// 1.0 wire codec, and the SwitchServer the scenarios and the benchmark rig
// run against. The lab that reproduces the paper's evaluation (the
// in-process Monitor on a virtual clock, the simulated switches, the §8
// experiment runners, the §6 coloring planner) stays internal; only
// cmd/experiments and the lab examples import it. The exported surface is
// locked by an API golden file (api_golden.txt) — changing it is
// deliberate, reviewed work, not an accident.
package monocle
