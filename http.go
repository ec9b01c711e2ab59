package monocle

// The monocled HTTP surface: the route table a Service and a cluster
// Coordinator both serve, the Service's handlers, the health views, the
// Prometheus text exposition of GET /metrics, and the JSON and
// request-body helpers the two surfaces share.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Handler returns the monocled HTTP control surface:
//
//	POST /switches            add a switch (SwitchSpec)
//	GET  /switches            list switches with epochs and rule counts
//	POST /switches/{id}/rules apply a RuleOp, returns UpdateReply
//	POST /sweep               run one sweep round now (?group= limits it
//	                          to named policy groups), returns its alerts
//	GET  /policy              active policy source text (404 when none)
//	PUT  /policy              validate-then-swap the monitoring policy
//	                          (422 with line/column on a parse error,
//	                          leaving the running plan untouched; an
//	                          empty body clears the policy)
//	GET  /sweeps              last round's ResultRecords, one JSON line each
//	GET  /alerts              retained alerts, one JSON line each
//	GET  /healthz             combined liveness/readiness/drain view
//	GET  /livez               liveness only: 200 while the process serves
//	GET  /readyz              readiness: 200 only after Resume finished
//	                          and the first round of this life completed
//	                          (503 with the blocking state otherwise) — a
//	                          cluster coordinator routes on this, never
//	                          on /livez, so a replica still replaying its
//	                          WAL receives no traffic
//	GET  /metrics             ServiceMetrics (JSON; Prometheus text with
//	                          Accept: text/plain)
func (s *Service) Handler() http.Handler { return mountRoutes(s) }

// routeHandlers is the HTTP surface a Service and a Coordinator both
// serve, one method per route: a route added to mountRoutes does not
// compile until both implement it.
type routeHandlers interface {
	handleAddSwitch(http.ResponseWriter, *http.Request)
	handleListSwitches(http.ResponseWriter, *http.Request)
	handleRules(http.ResponseWriter, *http.Request)
	handleSweep(http.ResponseWriter, *http.Request)
	handleGetPolicy(http.ResponseWriter, *http.Request)
	handlePutPolicy(http.ResponseWriter, *http.Request)
	handleSweeps(http.ResponseWriter, *http.Request)
	handleAlerts(http.ResponseWriter, *http.Request)
	handleHealthz(http.ResponseWriter, *http.Request)
	handleReadyz(http.ResponseWriter, *http.Request)
	handleMetrics(http.ResponseWriter, *http.Request)
}

// mountRoutes returns a mux serving the shared route table on h.
func mountRoutes(h routeHandlers) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /switches", h.handleAddSwitch)
	mux.HandleFunc("GET /switches", h.handleListSwitches)
	mux.HandleFunc("POST /switches/{id}/rules", h.handleRules)
	mux.HandleFunc("POST /sweep", h.handleSweep)
	mux.HandleFunc("GET /policy", h.handleGetPolicy)
	mux.HandleFunc("PUT /policy", h.handlePutPolicy)
	mux.HandleFunc("GET /sweeps", h.handleSweeps)
	mux.HandleFunc("GET /alerts", h.handleAlerts)
	mux.HandleFunc("GET /healthz", h.handleHealthz)
	mux.HandleFunc("GET /livez", handleLivez)
	mux.HandleFunc("GET /readyz", h.handleReadyz)
	mux.HandleFunc("GET /metrics", h.handleMetrics)
	return mux
}

func (s *Service) handleAddSwitch(w http.ResponseWriter, r *http.Request) {
	var spec SwitchSpec
	if !decodeJSONBody(w, r, &spec) {
		return
	}
	if _, err := s.AddSwitch(spec); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDuplicateSwitch) {
			status = http.StatusConflict
		}
		httpError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"switch": spec.ID})
}

func (s *Service) handleListSwitches(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics().Switches)
}

func (s *Service) handleRules(w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad switch id: %w", err))
		return
	}
	var op RuleOp
	if !decodeJSONBody(w, r, &op) {
		return
	}
	reply, err := s.applyRule(r.Context(), uint32(id64), op)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrNotFound):
			status = http.StatusNotFound
		case errors.Is(err, ErrDuplicateID), errors.Is(err, ErrSamePriorityOverlap):
			status = http.StatusConflict
		case errors.Is(err, ErrBackendDisconnected):
			// Transient: the proxy driver is redialing its switch with
			// backoff; the client should retry after backend_reconnected.
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	// Deliberately not the request context: a client disconnect mid-sweep
	// would abort the round, and an operator-requested sweep should
	// complete once started.
	alerts := s.SweepRound(context.Background(), r.URL.Query()["group"]...)
	s.mu.Lock()
	round := s.metrics.Rounds
	rules := s.metrics.LastRoundRules
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"round": round, "rules": rules, "alerts": alerts,
	})
}

func (s *Service) handleGetPolicy(w http.ResponseWriter, _ *http.Request) {
	pol := s.Policy()
	if pol == nil {
		httpError(w, http.StatusNotFound, errors.New("no active policy"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(pol.Source()))
}

// handlePutPolicy validates, then swaps: a body that does not parse is
// rejected with 422 Unprocessable Entity carrying the offending source
// line and column, and the running plan stays untouched. An empty body
// clears the active policy.
func (s *Service) handlePutPolicy(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if strings.TrimSpace(string(body)) == "" {
		s.SetPolicy(nil)
		writeJSON(w, http.StatusOK, map[string]any{"policy": nil})
		return
	}
	p, err := ParsePolicy(string(body))
	if err != nil {
		writePolicyError(w, err)
		return
	}
	s.SetPolicy(p)
	assignments := make(map[string][]uint32)
	for _, id := range s.fleet.Switches() {
		g := p.groupOf(id, s.tagsOf(id))
		assignments[g] = append(assignments[g], id)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"groups":      p.GroupNames(),
		"assignments": assignments,
	})
}

func (s *Service) handleSweeps(w http.ResponseWriter, _ *http.Request) {
	writeJSONLines(w, s.LastSweep())
}

func (s *Service) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	writeJSONLines(w, s.Alerts())
}

// healthState is one consistent snapshot of the liveness/readiness axes.
type healthState struct {
	draining   bool
	resuming   bool
	rounds     uint64
	liveRounds uint64
}

func (s *Service) healthState() healthState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return healthState{
		draining:   s.draining,
		resuming:   s.resuming,
		rounds:     s.metrics.Rounds,
		liveRounds: s.liveRounds,
	}
}

// ready reports whether the service should receive routed traffic: the
// WAL replay (Resume) has finished, at least one sweep round of this
// process life has completed, and the service is not draining.
func (h healthState) ready() bool {
	return !h.resuming && !h.draining && h.liveRounds > 0
}

// Ready reports the service's readiness (the GET /readyz state): Resume
// is not in flight, the first sweep round of this process life has
// completed, and the service is not draining.
func (s *Service) Ready() bool { return s.healthState().ready() }

// handleHealthz is the combined health view (kept for operators and
// backward compatibility; orchestrators should probe /livez and /readyz).
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.healthState()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"ready":    h.ready(),
		"draining": h.draining,
		"resuming": h.resuming,
		"switches": s.fleet.Size(),
		"rounds":   h.rounds,
	})
}

// handleLivez reports process liveness only: if this handler runs at all,
// the process is alive — restarts are for the orchestrator to decide on
// timeouts, not on body content. A monocled and a coordinator share it.
func handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleReadyz reports routability: 200 only once Resume has completed
// and the first sweep round of this life has finished (503 otherwise,
// with the blocking state in the body). A restarted replica behind a
// cluster coordinator therefore serves no routed traffic until its WAL
// replay is done and its diff engine has re-proven the fleet once.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.healthState()
	status := http.StatusOK
	if !h.ready() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":    h.ready(),
		"resuming": h.resuming,
		"draining": h.draining,
		"rounds":   h.rounds,
		"switches": s.fleet.Size(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r.Header.Get("Accept")) {
		s.writePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// wantsPrometheus reports whether the Accept header asks for the
// Prometheus text exposition format. JSON stays the default; scrapers
// sending text/plain or OpenMetrics media types get the text format.
func wantsPrometheus(accept string) bool {
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// writePrometheus renders the service counters in the Prometheus text
// exposition format: sweep-round totals, alert counts by type, the last
// round's per-rule cost, per-group counters under a policy, and
// per-switch epoch/rule/cache gauges.
func (s *Service) writePrometheus(w http.ResponseWriter) {
	m := s.Metrics()
	var p promWriter
	p.metric("monocle_sweep_rounds_total", "counter", "Completed sweep rounds.", m.Rounds)
	p.metric("monocle_rules_swept_total", "counter", "Per-rule results across all rounds.", m.RulesSwept)
	p.metric("monocle_sink_errors_total", "counter", "Failed alert-sink deliveries.", m.SinkErrors)
	p.metric("monocle_store_errors_total", "counter", "Failed persistence-store writes.", m.StoreErrors)
	p.metric("monocle_policy_errors_total", "counter", "Rejected monitoring-policy loads.", m.PolicyErrors)

	p.family("monocle_alerts_total", "counter", "Alerts raised, by type.")
	for t := AlertRuleFailing; t <= AlertBackendFlapping; t++ {
		p.sample("monocle_alerts_total", m.AlertsByType[t.String()], "type", t.String())
	}

	p.metric("monocle_last_round_rules", "gauge", "Result count of the most recent round.", m.LastRoundRules)
	p.metric("monocle_last_round_us_per_rule", "gauge", "Per-rule cost of the most recent round in microseconds.", m.LastRoundMicrosPerRule)

	if len(m.Groups) > 0 {
		perGroup := func(name, kind, help string, value func(GroupMetrics) any) {
			p.family(name, kind, help)
			for _, g := range m.Groups {
				p.sample(name, value(g), "group", g.Group)
			}
		}
		perGroup("monocle_group_switches", "gauge", "Fleet members per policy group.",
			func(g GroupMetrics) any { return g.Switches })
		perGroup("monocle_group_rounds_total", "counter", "Completed sweep rounds per policy group.",
			func(g GroupMetrics) any { return g.Rounds })
		perGroup("monocle_group_rules_covered_total", "counter", "Per-rule results per policy group across all rounds.",
			func(g GroupMetrics) any { return g.RulesCovered })
		perGroup("monocle_group_last_round_us_per_rule", "gauge", "Per-rule cost of the group's most recent round in microseconds.",
			func(g GroupMetrics) any { return g.LastRoundMicrosPerRule })
	}

	sortSwitches(m.Switches)
	perSwitch := func(name, kind, help string, value func(SwitchMetrics) any) {
		p.family(name, kind, help)
		for _, sw := range m.Switches {
			p.sample(name, value(sw), "switch", strconv.FormatUint(uint64(sw.Switch), 10))
		}
	}
	perSwitch("monocle_switch_epoch", "gauge", "Table-change epoch per switch.",
		func(sw SwitchMetrics) any { return sw.Epoch })
	perSwitch("monocle_switch_rules", "gauge", "Installed rules per switch.",
		func(sw SwitchMetrics) any { return sw.Rules })
	perSwitch("monocle_switch_cache_hits_total", "counter", "Session-cache hits per switch.",
		func(sw SwitchMetrics) any { return sw.Cache.Hits })
	perSwitch("monocle_switch_cache_syncs_total", "counter", "Session-cache epoch syncs per switch.",
		func(sw SwitchMetrics) any { return sw.Cache.Syncs })
	perSwitch("monocle_switch_cache_delta_rules_total", "counter", "Incrementally recompiled rules per switch.",
		func(sw SwitchMetrics) any { return sw.Cache.DeltaRules })
	perSwitch("monocle_switch_cache_rebuilds_total", "counter", "Full library rebuilds per switch.",
		func(sw SwitchMetrics) any { return sw.Cache.Rebuilds })
	perSwitch("monocle_switch_cache_solved_rules_total", "counter", "Rules solved per switch; results kept from an earlier solve are not counted.",
		func(sw SwitchMetrics) any { return sw.Cache.Solved })
	perSwitch("monocle_backend_events_dropped_total", "counter", "Driver lifecycle events dropped from the backend event stream per switch.",
		func(sw SwitchMetrics) any { return sw.EventsDropped })
	p.send(w)
}

// sortSwitches orders per-switch metrics by ascending switch id.
func sortSwitches(sws []SwitchMetrics) {
	sort.Slice(sws, func(i, j int) bool { return sws[i].Switch < sws[j].Switch })
}

// promWriter accumulates the Prometheus text exposition format (version
// 0.0.4) for a monocled's and a coordinator's GET /metrics: metric
// families, each a # HELP/# TYPE header followed by its samples.
type promWriter struct{ strings.Builder }

// family writes the header of metric family name; kind is its TYPE.
func (p *promWriter) family(name, kind, help string) {
	fmt.Fprintf(p, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// sample writes one sample of family name. labels alternate label names
// and values; v is formatted with %v (decimal integers, shortest floats).
func (p *promWriter) sample(name string, v any, labels ...string) {
	p.WriteString(name)
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		p.WriteString(sep + labels[i] + "=" + strconv.Quote(labels[i+1]))
		sep = ","
	}
	if sep == "," {
		p.WriteByte('}')
	}
	fmt.Fprintf(p, " %v\n", v)
}

// metric writes a family holding a single unlabelled sample.
func (p *promWriter) metric(name, kind, help string, v any) {
	p.family(name, kind, help)
	p.sample(name, v)
}

// send writes the accumulated text as the response.
func (p *promWriter) send(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, p.String())
}

// maxBodyBytes caps every request body the HTTP surfaces read.
const maxBodyBytes = 1 << 20

// decodeJSONBody decodes the request's JSON body into v under the
// maxBodyBytes cap. It answers 413 for an oversized body and 400 for any
// other decode error, and reports whether v was decoded.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return bodyOK(w, json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v))
}

// readBody reads the whole request body under the same cap, answering a
// failure like decodeJSONBody.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return body, bodyOK(w, err)
}

// bodyOK reports whether reading a request body succeeded, answering 413
// (oversized) or 400 (anything else) when it did not.
func bodyOK(w http.ResponseWriter, err error) bool {
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, err)
	default:
		httpError(w, http.StatusBadRequest, err)
	}
	return false
}

// writePolicyError answers a policy that does not parse: 422 carrying the
// offending source line and column.
func writePolicyError(w http.ResponseWriter, err error) {
	var perr *PolicyError
	if errors.As(err, &perr) {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error": perr.Error(), "line": perr.Line, "column": perr.Col,
		})
		return
	}
	httpError(w, http.StatusUnprocessableEntity, err)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeJSON writes one JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONLines writes items as JSON lines (ndjson).
func writeJSONLines[T any](w http.ResponseWriter, items []T) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, it := range items {
		if enc.Encode(it) != nil {
			return
		}
	}
}
