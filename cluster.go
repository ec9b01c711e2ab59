package monocle

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"monocle/internal/cluster"
	"monocle/internal/jsonl"
)

// ReplicaSpec names one monocled replica behind a cluster coordinator.
type ReplicaSpec struct {
	// Name is the replica's stable shard identity. Rendezvous hashing
	// assigns switches to names, not addresses, so a replica may restart
	// on a new port (or host) and keep its shard as long as the name and
	// the state directory survive.
	Name string `json:"name"`
	// URL is the replica's base HTTP URL (e.g. "http://10.0.0.7:7771").
	URL string `json:"url"`
}

// ClusterConfig configures a Coordinator.
type ClusterConfig struct {
	// Replicas is the static cluster membership. Names must be unique and
	// non-empty; the set is fixed for the coordinator's lifetime.
	Replicas []ReplicaSpec
	// Client is the HTTP client used to reach replicas (default: a client
	// with a 10s timeout).
	Client *http.Client
}

// ReplicaHealth is one replica's slice of the cluster health view.
type ReplicaHealth struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Alive reports the replica answered its last health probe at all.
	Alive bool `json:"alive"`
	// Ready reports the replica passed GET /readyz: its WAL replay is
	// done and the first sweep round of this process life has completed.
	Ready bool `json:"ready"`
	// Resuming/Draining mirror the replica's readyz detail when alive.
	Resuming bool `json:"resuming,omitempty"`
	Draining bool `json:"draining,omitempty"`
	// Rounds and Switches are the replica's own counters.
	Rounds   uint64 `json:"rounds"`
	Switches int    `json:"switches"`
	// Error is the probe failure when the replica is not alive.
	Error string `json:"error,omitempty"`
}

// ClusterHealth is the coordinator's GET /healthz payload: the fleet-wide
// view across every replica.
type ClusterHealth struct {
	// OK reports every replica answered its probe.
	OK bool `json:"ok"`
	// Ready reports every replica is routable (alive and ready).
	Ready bool `json:"ready"`
	// Replicas holds the per-replica detail in membership order.
	Replicas []ReplicaHealth `json:"replicas"`
	// Degraded names the shards that are currently not routable, sorted.
	// A degraded shard's switches are unmonitored until the replica comes
	// back (same name, same state dir) and finishes its Resume.
	Degraded []string `json:"degraded,omitempty"`
}

// ShardMap is the cluster's switch-to-replica assignment.
type ShardMap struct {
	// Replicas is the membership the assignment is computed over.
	Replicas []string `json:"replicas"`
	// Switches maps the currently registered switch ids to their owning
	// replica name (populated by GET /shards from live fan-in; empty in a
	// freshly built map).
	Switches map[uint32]string `json:"switches,omitempty"`
	// Degraded names replicas that did not answer the fan-in.
	Degraded []string `json:"degraded,omitempty"`
}

// Owner returns the replica name that owns switch id under the map's
// membership (rendezvous hashing; deterministic for a given membership).
func (m ShardMap) Owner(id uint32) string { return cluster.Owner(m.Replicas, id) }

// ReplicaMetrics is one replica's slice of ClusterMetrics.
type ReplicaMetrics struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	Error string `json:"error,omitempty"`
	// Metrics is the replica's own GET /metrics payload when alive.
	Metrics *ServiceMetrics `json:"metrics,omitempty"`
}

// ClusterMetrics is the coordinator's GET /metrics payload: cluster
// rollups plus the per-replica detail.
type ClusterMetrics struct {
	// Rounds is the maximum replica round counter. Coordinated sweeps
	// advance every replica in lockstep, so under POST /sweep fan-out the
	// counters agree; cadence-driven replicas may briefly diverge.
	Rounds uint64 `json:"rounds"`
	// RulesSwept, AlertsTotal, SinkErrors, StoreErrors and PolicyErrors
	// are summed across replicas.
	RulesSwept   uint64            `json:"rules_swept"`
	AlertsTotal  uint64            `json:"alerts_total"`
	AlertsByType map[string]uint64 `json:"alerts_by_type,omitempty"`
	SinkErrors   uint64            `json:"sink_errors,omitempty"`
	StoreErrors  uint64            `json:"store_errors,omitempty"`
	PolicyErrors uint64            `json:"policy_errors,omitempty"`
	// Switches is the total registered switch count across replicas.
	Switches int `json:"switches"`
	// Replicas holds the per-replica payloads in membership order.
	Replicas []ReplicaMetrics `json:"replicas"`
	// Degraded names replicas that did not answer the fan-in, sorted.
	Degraded []string `json:"degraded,omitempty"`
}

// Coordinator fronts N monocled replicas as one fleet: it owns the
// switch-to-replica shard map (rendezvous hashing on switch id), routes
// registrations and rule ops to the owning replica, fans policy updates
// and sweeps out to every replica, and merges the per-replica alert and
// sweep streams back into one deterministic global order.
//
// The aggregated surface mirrors a single monocled's HTTP API: a client
// pointed at a coordinator sees the same endpoints and — for a
// single-replica cluster — byte-identical streams. See Handler for the
// routes and doc.go for the cluster topology story.
type Coordinator struct {
	replicas []ReplicaSpec
	names    []string
	byName   map[string]ReplicaSpec
	client   *http.Client
}

// NewCoordinator validates the membership and returns a coordinator.
// Replica names must be unique and non-empty, URLs must parse absolute.
func NewCoordinator(cfg ClusterConfig) (*Coordinator, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("monocle: cluster needs at least one replica")
	}
	byName := make(map[string]ReplicaSpec, len(cfg.Replicas))
	names := make([]string, 0, len(cfg.Replicas))
	for _, rep := range cfg.Replicas {
		if rep.Name == "" {
			return nil, errors.New("monocle: replica with empty name")
		}
		if _, dup := byName[rep.Name]; dup {
			return nil, fmt.Errorf("monocle: duplicate replica name %q", rep.Name)
		}
		u, err := url.Parse(rep.URL)
		if err != nil || !u.IsAbs() || u.Host == "" {
			return nil, fmt.Errorf("monocle: replica %q: bad URL %q", rep.Name, rep.URL)
		}
		byName[rep.Name] = rep
		names = append(names, rep.Name)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Coordinator{
		replicas: append([]ReplicaSpec(nil), cfg.Replicas...),
		names:    names,
		byName:   byName,
		client:   client,
	}, nil
}

// Owner returns the replica that owns switch id under the current
// membership.
func (c *Coordinator) Owner(id uint32) ReplicaSpec {
	return c.byName[cluster.Owner(c.names, id)]
}

// Close releases the coordinator's idle replica connections. It is safe
// to call more than once.
func (c *Coordinator) Close() error {
	c.client.CloseIdleConnections()
	return nil
}

// fanOut runs fn once per replica, all replicas concurrently, and returns
// the results in membership order.
func fanOut[T any](c *Coordinator, fn func(ReplicaSpec) T) []T {
	out := make([]T, len(c.replicas))
	var wg sync.WaitGroup
	for i, rep := range c.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fn(rep)
		}()
	}
	wg.Wait()
	return out
}

// health probes every replica now and returns the fleet view.
func (c *Coordinator) health(ctx context.Context) ClusterHealth {
	out := ClusterHealth{OK: true, Ready: true}
	out.Replicas = fanOut(c, func(rep ReplicaSpec) ReplicaHealth { return c.probe(ctx, rep) })
	for _, h := range out.Replicas {
		if !h.Alive {
			out.OK = false
		}
		if !h.Alive || !h.Ready {
			out.Ready = false
			out.Degraded = append(out.Degraded, h.Name)
		}
	}
	sort.Strings(out.Degraded)
	return out
}

// probe asks one replica's /readyz and folds the answer into a
// ReplicaHealth. Any transport error means not alive (and therefore a
// degraded shard); a 503 means alive but not routable yet.
func (c *Coordinator) probe(ctx context.Context, rep ReplicaSpec) ReplicaHealth {
	body, status, err := c.call(ctx, rep, http.MethodGet, "/readyz", "", nil)
	var h ReplicaHealth // the readyz body carries ready/resuming/draining/rounds/switches
	if err == nil {
		if err = json.Unmarshal(body, &h); err != nil {
			err = fmt.Errorf("bad readyz body: %v", err)
		}
	}
	if err != nil {
		return ReplicaHealth{Name: rep.Name, URL: rep.URL, Error: err.Error()}
	}
	h.Name, h.URL, h.Alive = rep.Name, rep.URL, true
	h.Ready = status == http.StatusOK && h.Ready
	return h
}

// call performs one replica request and returns the full response body
// and status. Transport errors (replica down) come back as err; HTTP
// error statuses do not.
func (c *Coordinator) call(ctx context.Context, rep ReplicaSpec, method, path, contentType string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.URL+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, 0, err
	}
	return b, resp.StatusCode, nil
}

// unroutable synchronously re-probes one replica and returns why it
// cannot safely accept routed ops, or "" when it can: it answers, it is
// not mid-Resume (WAL replay), and it is not draining.
// Note this is deliberately weaker than full /readyz readiness — a fresh
// replica has not finished its first round yet, but it must accept the
// switch registrations that make the first round possible.
func (c *Coordinator) unroutable(ctx context.Context, rep ReplicaSpec) string {
	h := c.probe(ctx, rep)
	switch {
	case !h.Alive:
		return h.Error
	case h.Resuming:
		return "resuming (WAL replay in progress)"
	case h.Draining:
		return "draining"
	}
	return ""
}

// firstUnroutable gates a fleet-wide op: a partial sweep or policy update
// would silently skip (or diverge) a shard, so every replica must be
// routable. It names the first one in membership order that is not, and
// why ("" when all are).
func (c *Coordinator) firstUnroutable(ctx context.Context) (shard, reason string) {
	for _, rep := range c.replicas {
		if reason := c.unroutable(ctx, rep); reason != "" {
			return rep.Name, reason
		}
	}
	return "", ""
}

// Handler returns the coordinator's aggregated HTTP surface — the same
// routes a single monocled serves, re-exposed fleet-wide:
//
//	POST /switches             route the registration to the owning shard
//	GET  /switches             fan-in, merged ascending by switch id
//	POST /switches/{id}/rules  route the rule op to the owning shard
//	POST /sweep                fan-out to every shard, aggregate reply
//	GET  /policy               active policy source (from the first live shard)
//	PUT  /policy               validate, then fan-out to every shard
//	GET  /sweeps               per-replica streams merged by switch id
//	GET  /alerts               merged by (round, switch, rule, seq), seq
//	                           renumbered along the merged global order
//	GET  /metrics              cluster rollups + replica-labelled series
//	                           (JSON; Prometheus text via Accept)
//	GET  /healthz              ClusterHealth (always 200, body carries state)
//	GET  /livez                coordinator process liveness
//	GET  /readyz               200 only when every shard is routable
//	GET  /shards               live shard map (switch id -> replica name)
//
// Fan-in reads tolerate dead replicas: the response carries the merged
// view of the live shards and an X-Monocle-Degraded header naming the
// missing ones. Mutating ops are gated on the owning shard's readiness
// and fail 503 with the shard name instead of silently dropping work.
// Replica health is probed live on every request that depends on it.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /switches", c.handleAddSwitch)
	mux.HandleFunc("GET /switches", c.handleListSwitches)
	mux.HandleFunc("POST /switches/{id}/rules", c.handleRules)
	mux.HandleFunc("POST /sweep", c.handleSweep)
	mux.HandleFunc("GET /policy", c.handleGetPolicy)
	mux.HandleFunc("PUT /policy", c.handlePutPolicy)
	mux.HandleFunc("GET /sweeps", c.handleSweeps)
	mux.HandleFunc("GET /alerts", c.handleAlerts)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /livez", handleLivez)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /shards", c.handleShards)
	return mux
}

// writeDegraded answers 503 for an op the named shard cannot take now,
// instead of silently dropping it.
func writeDegraded(w http.ResponseWriter, shard, reason string) {
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error": fmt.Sprintf("shard %s degraded: %s", shard, reason), "shard": shard, "degraded": true,
	})
}

// relay copies a replica response (status and body) to the client.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// forward POSTs a client's JSON body to path on the replica owning switch
// id, once that replica is routable, and relays the replica's answer.
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, id uint32, path string, body []byte) {
	owner := c.Owner(id)
	if reason := c.unroutable(r.Context(), owner); reason != "" {
		writeDegraded(w, owner.Name, reason)
		return
	}
	resp, status, err := c.call(r.Context(), owner, http.MethodPost, path, "application/json", body)
	if err != nil {
		writeDegraded(w, owner.Name, err.Error())
		return
	}
	relay(w, status, resp)
}

func (c *Coordinator) handleAddSwitch(w http.ResponseWriter, r *http.Request) {
	var body json.RawMessage
	if !decodeJSONBody(w, r, &body) {
		return
	}
	var peek struct {
		ID uint32 `json:"id"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	c.forward(w, r, peek.ID, "/switches", body)
}

func (c *Coordinator) handleRules(w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad switch id: %w", err))
		return
	}
	var body json.RawMessage
	if !decodeJSONBody(w, r, &body) {
		return
	}
	c.forward(w, r, uint32(id64), "/switches/"+r.PathValue("id")+"/rules", body)
}

// fanIn GETs path from every replica concurrently and returns the bodies
// in membership order (nil for a replica that failed or answered non-200)
// plus the sorted names of the replicas that failed.
func (c *Coordinator) fanIn(ctx context.Context, path string) (bodies [][]byte, degraded []string) {
	bodies = fanOut(c, func(rep ReplicaSpec) []byte {
		body, status, err := c.call(ctx, rep, http.MethodGet, path, "", nil)
		if err != nil || status != http.StatusOK {
			return nil
		}
		return body
	})
	for i, body := range bodies {
		if body == nil {
			degraded = append(degraded, c.replicas[i].Name)
		}
	}
	sort.Strings(degraded)
	return bodies, degraded
}

// fanInSwitches merges every live replica's GET /switches list, ascending
// by switch id.
func (c *Coordinator) fanInSwitches(ctx context.Context) (merged []SwitchMetrics, degraded []string, err error) {
	bodies, degraded := c.fanIn(ctx, "/switches")
	for _, body := range bodies {
		if body == nil {
			continue
		}
		var part []SwitchMetrics
		if err := json.Unmarshal(body, &part); err != nil {
			return nil, nil, err
		}
		merged = append(merged, part...)
	}
	sortSwitches(merged)
	return merged, degraded, nil
}

// fanInLines GETs an ndjson stream from every replica and calls fn on
// every non-blank line of the live ones, in membership order, stopping at
// fn's first error. It returns the sorted names of the failed replicas.
func (c *Coordinator) fanInLines(ctx context.Context, path string, fn func(line []byte) error) ([]string, error) {
	bodies, degraded := c.fanIn(ctx, path)
	for _, body := range bodies {
		if err := jsonl.Lines(bytes.NewReader(body), fn); err != nil {
			return nil, err
		}
	}
	return degraded, nil
}

func markDegraded(w http.ResponseWriter, degraded []string) {
	if len(degraded) > 0 {
		w.Header().Set("X-Monocle-Degraded", strings.Join(degraded, ","))
	}
}

func (c *Coordinator) handleListSwitches(w http.ResponseWriter, r *http.Request) {
	merged, degraded, err := c.fanInSwitches(r.Context())
	if err != nil {
		httpError(w, http.StatusBadGateway, err)
		return
	}
	markDegraded(w, degraded)
	writeJSON(w, http.StatusOK, merged)
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	if shard, reason := c.firstUnroutable(r.Context()); reason != "" {
		writeDegraded(w, shard, reason)
		return
	}
	path := "/sweep"
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	type sweepReply struct {
		Round  uint64  `json:"round"`
		Rules  int     `json:"rules"`
		Alerts []Alert `json:"alerts"`
		err    error
	}
	replies := fanOut(c, func(rep ReplicaSpec) (sr sweepReply) {
		body, status, err := c.call(r.Context(), rep, http.MethodPost, path, "", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("replica %s: sweep returned %d: %s", rep.Name, status, body)
		}
		if err == nil {
			err = json.Unmarshal(body, &sr)
		}
		sr.err = err
		return sr
	})
	var out sweepReply
	var merged []Alert
	for i, sr := range replies {
		if sr.err != nil {
			writeDegraded(w, c.replicas[i].Name, sr.err.Error())
			return
		}
		out.Round = max(out.Round, sr.Round)
		out.Rules += sr.Rules
		merged = append(merged, sr.Alerts...)
	}
	sortAlerts(merged)
	writeJSON(w, http.StatusOK, map[string]any{
		"round": out.Round, "rules": out.Rules, "alerts": merged,
	})
}

func (c *Coordinator) handleGetPolicy(w http.ResponseWriter, r *http.Request) {
	for _, rep := range c.replicas {
		body, status, err := c.call(r.Context(), rep, http.MethodGet, "/policy", "", nil)
		if err != nil {
			continue
		}
		if status == http.StatusOK {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write(body)
			return
		}
		relay(w, status, body)
		return
	}
	httpError(w, http.StatusServiceUnavailable, errors.New("no live replica"))
}

func (c *Coordinator) handlePutPolicy(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	// Validate locally first: a policy that does not parse must not reach
	// any replica, or shards would diverge on which policy is active.
	cleared := len(bytes.TrimSpace(body)) == 0
	if !cleared {
		if _, err := ParsePolicy(string(body)); err != nil {
			writePolicyError(w, err)
			return
		}
	}
	if shard, reason := c.firstUnroutable(r.Context()); reason != "" {
		writeDegraded(w, shard, reason)
		return
	}
	type putReply struct {
		Groups      []string            `json:"groups"`
		Assignments map[string][]uint32 `json:"assignments"`
	}
	var groups []string
	mergedAsn := make(map[string][]uint32)
	for _, rep := range c.replicas {
		resp, status, err := c.call(r.Context(), rep, http.MethodPut, "/policy", "text/plain", body)
		if err != nil || status != http.StatusOK {
			if err == nil {
				err = fmt.Errorf("replica %s: policy update returned %d: %s", rep.Name, status, resp)
			}
			writeDegraded(w, rep.Name, err.Error())
			return
		}
		if cleared {
			continue
		}
		var pr putReply
		if err := json.Unmarshal(resp, &pr); err != nil {
			httpError(w, http.StatusBadGateway, err)
			return
		}
		groups = pr.Groups
		for g, ids := range pr.Assignments {
			mergedAsn[g] = append(mergedAsn[g], ids...)
		}
	}
	if cleared {
		writeJSON(w, http.StatusOK, map[string]any{"policy": nil})
		return
	}
	for g := range mergedAsn {
		sort.Slice(mergedAsn[g], func(i, j int) bool { return mergedAsn[g][i] < mergedAsn[g][j] })
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"groups": groups, "assignments": mergedAsn,
	})
}

// sortAlerts orders a merged alert slice by the global stream order
// (round, switch, rule, per-replica seq). Switch ownership is disjoint
// across replicas, so the order is total; within one replica's alerts it
// matches the replica's own emission order.
func sortAlerts(alerts []Alert) {
	sort.SliceStable(alerts, func(i, j int) bool {
		a, b := alerts[i], alerts[j]
		ka := cluster.Key{Round: a.Round, Switch: a.SwitchID, Rule: a.Rule, Seq: a.Seq}
		kb := cluster.Key{Round: b.Round, Switch: b.SwitchID, Rule: b.Rule, Seq: b.Seq}
		return ka.Less(kb)
	})
}

func (c *Coordinator) handleAlerts(w http.ResponseWriter, r *http.Request) {
	var merged []Alert
	degraded, err := c.fanInLines(r.Context(), "/alerts", func(line []byte) error {
		var a Alert
		err := json.Unmarshal(line, &a)
		merged = append(merged, a)
		return err
	})
	if err != nil {
		httpError(w, http.StatusBadGateway, err)
		return
	}
	sortAlerts(merged)
	// Renumber Seq along the merged global order: per-replica sequence
	// numbers depend on how the fleet is sharded, so the aggregated
	// stream re-stamps them 1..N to be byte-identical for every replica
	// count (a single-replica merge is the identity renumbering as long
	// as the replica's retained history has not wrapped its ring).
	for i := range merged {
		merged[i].Seq = uint64(i + 1)
	}
	markDegraded(w, degraded)
	writeJSONLines(w, merged)
}

func (c *Coordinator) handleSweeps(w http.ResponseWriter, r *http.Request) {
	// Sweep records pass through as raw lines: switch ownership is
	// disjoint and each replica emits its switches in ascending id order,
	// so a stable merge on the peeked switch id reproduces the standalone
	// byte stream exactly.
	type rawLine struct {
		sw   uint32
		line []byte
	}
	var lines []rawLine
	degraded, err := c.fanInLines(r.Context(), "/sweeps", func(line []byte) error {
		var peek struct {
			Switch uint32 `json:"switch"`
		}
		err := json.Unmarshal(line, &peek)
		lines = append(lines, rawLine{sw: peek.Switch, line: append([]byte(nil), line...)})
		return err
	})
	if err != nil {
		httpError(w, http.StatusBadGateway, err)
		return
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].sw < lines[j].sw })
	markDegraded(w, degraded)
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, l := range lines {
		w.Write(l.line)
		w.Write([]byte{'\n'})
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := c.clusterMetrics(r.Context())
	if wantsPrometheus(r.Header.Get("Accept")) {
		writeClusterPrometheus(w, m)
		return
	}
	markDegraded(w, m.Degraded)
	writeJSON(w, http.StatusOK, m)
}

func (c *Coordinator) clusterMetrics(ctx context.Context) ClusterMetrics {
	out := ClusterMetrics{AlertsByType: make(map[string]uint64)}
	out.Replicas = fanOut(c, func(rep ReplicaSpec) ReplicaMetrics {
		rm := ReplicaMetrics{Name: rep.Name, URL: rep.URL}
		body, status, err := c.call(ctx, rep, http.MethodGet, "/metrics", "", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("metrics returned %d", status)
		}
		var sm ServiceMetrics
		if err == nil {
			err = json.Unmarshal(body, &sm)
		}
		if err != nil {
			rm.Error = err.Error()
			return rm
		}
		rm.Alive, rm.Metrics = true, &sm
		return rm
	})
	for _, rm := range out.Replicas {
		sm := rm.Metrics
		if sm == nil {
			out.Degraded = append(out.Degraded, rm.Name)
			continue
		}
		out.Rounds = max(out.Rounds, sm.Rounds)
		out.RulesSwept += sm.RulesSwept
		out.AlertsTotal += sm.AlertsTotal
		out.SinkErrors += sm.SinkErrors
		out.StoreErrors += sm.StoreErrors
		out.PolicyErrors += sm.PolicyErrors
		out.Switches += len(sm.Switches)
		for t, n := range sm.AlertsByType {
			out.AlertsByType[t] += n
		}
	}
	if len(out.AlertsByType) == 0 {
		out.AlertsByType = nil
	}
	sort.Strings(out.Degraded)
	return out
}

// writeClusterPrometheus renders the cluster rollups plus replica-labelled
// series in the Prometheus text exposition format. Per-switch series keep
// both the switch and the owning replica as labels.
func writeClusterPrometheus(w http.ResponseWriter, m ClusterMetrics) {
	var p promWriter
	p.metric("monocle_cluster_sweep_rounds_total", "counter", "Completed sweep rounds (max across replicas).", m.Rounds)
	p.metric("monocle_cluster_rules_swept_total", "counter", "Per-rule results across all replicas.", m.RulesSwept)
	p.metric("monocle_cluster_alerts_total", "counter", "Alerts raised across all replicas.", m.AlertsTotal)
	p.metric("monocle_cluster_sink_errors_total", "counter", "Failed alert-sink deliveries across all replicas.", m.SinkErrors)
	p.metric("monocle_cluster_store_errors_total", "counter", "Failed persistence-store writes across all replicas.", m.StoreErrors)
	p.metric("monocle_cluster_policy_errors_total", "counter", "Rejected monitoring-policy loads across all replicas.", m.PolicyErrors)
	p.metric("monocle_cluster_switches", "gauge", "Registered switches across all replicas.", m.Switches)
	p.metric("monocle_cluster_degraded_shards", "gauge", "Replicas currently unreachable.", len(m.Degraded))

	p.family("monocle_replica_up", "gauge", "Replica answered its last metrics fan-in.")
	for _, rm := range m.Replicas {
		up := 0
		if rm.Alive {
			up = 1
		}
		p.sample("monocle_replica_up", up, "replica", rm.Name)
	}
	perReplica := func(name, kind, help string, value func(*ServiceMetrics) any) {
		p.family(name, kind, help)
		for _, rm := range m.Replicas {
			if rm.Metrics != nil {
				p.sample(name, value(rm.Metrics), "replica", rm.Name)
			}
		}
	}
	perReplica("monocle_sweep_rounds_total", "counter", "Completed sweep rounds per replica.",
		func(sm *ServiceMetrics) any { return sm.Rounds })
	perReplica("monocle_rules_swept_total", "counter", "Per-rule results per replica across all rounds.",
		func(sm *ServiceMetrics) any { return sm.RulesSwept })
	perReplica("monocle_alerts_raised_total", "counter", "Alerts raised per replica.",
		func(sm *ServiceMetrics) any { return sm.AlertsTotal })
	perReplica("monocle_last_round_rules", "gauge", "Result count of the replica's most recent round.",
		func(sm *ServiceMetrics) any { return sm.LastRoundRules })
	perReplica("monocle_last_round_us_per_rule", "gauge", "Per-rule cost of the replica's most recent round in microseconds.",
		func(sm *ServiceMetrics) any { return sm.LastRoundMicrosPerRule })

	perSwitch := func(name, help string, value func(SwitchMetrics) any) {
		p.family(name, "gauge", help)
		for _, rm := range m.Replicas {
			if rm.Metrics == nil {
				continue
			}
			sortSwitches(rm.Metrics.Switches)
			for _, sw := range rm.Metrics.Switches {
				p.sample(name, value(sw), "replica", rm.Name, "switch", strconv.FormatUint(uint64(sw.Switch), 10))
			}
		}
	}
	perSwitch("monocle_switch_epoch", "Table-change epoch per switch.",
		func(sw SwitchMetrics) any { return sw.Epoch })
	perSwitch("monocle_switch_rules", "Installed rules per switch.",
		func(sw SwitchMetrics) any { return sw.Rules })
	p.send(w)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.health(r.Context()))
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := c.health(r.Context())
	status := http.StatusOK
	if !h.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (c *Coordinator) handleShards(w http.ResponseWriter, r *http.Request) {
	switches, degraded, err := c.fanInSwitches(r.Context())
	if err != nil {
		httpError(w, http.StatusBadGateway, err)
		return
	}
	m := ShardMap{Replicas: c.names, Switches: make(map[uint32]string), Degraded: degraded}
	for _, sw := range switches {
		m.Switches[sw.Switch] = m.Owner(sw.Switch)
	}
	markDegraded(w, degraded)
	writeJSON(w, http.StatusOK, m)
}
