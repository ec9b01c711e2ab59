package main

// Tracing from outside the program: timing decorators on the public
// seams (Backend, Store, Sink, http.Handler) and a relay on every rig
// control connection that timestamps FlowMod, PacketOut and PacketIn.
// Spans and wire events stay in memory and are written out at exit.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"monocle"
)

// Span layers.
const (
	layerRound      = "service.round"       // one SweepRound, timed by the workload loop
	layerObserve    = "backend.observe"     // Backend.ObserveBatch
	layerObserveOne = "backend.observe_one" // Backend.Observe (rule-op confirmation)
	layerSaveRound  = "store.save_round"
	layerSaveRules  = "store.save_rules"
	layerDeliver    = "sink.deliver"
	layerHandler    = "http.handler"
)

// span is one timed call into a layer. Times are ns since the tracer's
// epoch.
type span struct {
	Layer  string `json:"layer"`
	Switch uint32 `json:"switch,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	N      int    `json:"n,omitempty"` // probes in an observe call, alerts in a delivery
}

// Wire event kinds.
const (
	wireFlowMod   = "flowmod"
	wirePacketOut = "packetout"
	wirePacketIn  = "packetin"
)

// wireEvent is one control-channel message the relays saw. Conn is the
// switch id whose connection carried it; Origin/Rule/Seq identify the
// probe (from its metadata) or, for a FlowMod, Rule is the cookie.
type wireEvent struct {
	Kind   string `json:"kind"`
	Conn   uint32 `json:"conn"`
	T      int64  `json:"t"`
	Bytes  int    `json:"bytes"`
	Origin uint32 `json:"origin,omitempty"`
	Rule   uint64 `json:"rule"`
	Seq    uint64 `json:"seq,omitempty"`
}

type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	wire   []wireEvent
	relays []*relay
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records a span around fn.
func (t *tracer) timed(layer string, sw uint32, n int, fn func()) {
	start := t.now()
	fn()
	t.add(span{Layer: layer, Switch: sw, Start: start, End: t.now(), N: n})
}

// snapshot copies the recorded spans and wire events.
func (t *tracer) snapshot() ([]span, []wireEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]wireEvent(nil), t.wire...)
}

// writeFile dumps every span and wire event as JSON lines.
func (t *tracer) writeFile(path string) error {
	spans, wire := t.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, e := range wire {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend times the backend's observation calls.
type tracedBackend struct {
	monocle.Backend
	tr *tracer
}

func (b *tracedBackend) Observe(ctx context.Context, p *monocle.Probe, e monocle.Expectation) (v monocle.Verdict, err error) {
	b.tr.timed(layerObserveOne, b.SwitchID(), 1, func() { v, err = b.Backend.Observe(ctx, p, e) })
	return v, err
}

// ObserveBatch forwards through the package seam so the wrapped driver's
// batch fast path stays in use.
func (b *tracedBackend) ObserveBatch(ctx context.Context, probes []*monocle.Probe, expects []monocle.Expectation) (vs []monocle.Verdict, errs []error) {
	b.tr.timed(layerObserve, b.SwitchID(), len(probes), func() {
		vs, errs = monocle.ObserveBatch(ctx, b.Backend, probes, expects)
	})
	return vs, errs
}

// Unwrap returns the wrapped driver (see monocle.UnwrapBackend).
func (b *tracedBackend) Unwrap() monocle.Backend { return b.Backend }

// tracedStore times the persistence calls a round and a rule op make.
type tracedStore struct {
	monocle.Store
	tr *tracer
}

func (s tracedStore) SaveRound(state monocle.DifferState, alerts []monocle.Alert) (err error) {
	s.tr.timed(layerSaveRound, 0, len(alerts), func() { err = s.Store.SaveRound(state, alerts) })
	return err
}

func (s tracedStore) SaveRules(id uint32, epoch uint64, rules []monocle.RuleSpec) (err error) {
	s.tr.timed(layerSaveRules, id, len(rules), func() { err = s.Store.SaveRules(id, epoch, rules) })
	return err
}

// tracedSink times alert delivery.
type tracedSink struct {
	monocle.Sink
	tr *tracer
}

func (s tracedSink) Deliver(ctx context.Context, alerts []monocle.Alert) (err error) {
	s.tr.timed(layerDeliver, 0, len(alerts), func() { err = s.Sink.Deliver(ctx, alerts) })
	return err
}

// handler times every request the HTTP control surface serves.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.timed(layerHandler, 0, 0, func() { h.ServeHTTP(w, r) })
	})
}

// relay forwards one rig connection byte for byte, decoding a copy of
// each message to timestamp FlowMods, PacketOuts and PacketIns.
type relay struct {
	tr     *tracer
	id     uint32
	target string
	ln     net.Listener
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

// relay starts a relay to target for switch id and returns its address.
func (t *tracer) relay(id uint32, target string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	r := &relay{tr: t, id: id, target: target, ln: ln}
	t.mu.Lock()
	t.relays = append(t.relays, r)
	t.mu.Unlock()
	r.wg.Add(1)
	go r.accept()
	return ln.Addr().String(), nil
}

func (t *tracer) closeRelays() {
	t.mu.Lock()
	relays := t.relays
	t.relays = nil
	t.mu.Unlock()
	for _, r := range relays {
		r.close()
	}
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, down, up)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pump(up, down)
		go r.pump(down, up)
	}
}

// pump copies messages from src to dst until either side closes.
func (r *relay) pump(dst, src net.Conn) {
	defer r.wg.Done()
	defer dst.Close()
	defer src.Close()
	var buf bytes.Buffer
	for {
		buf.Reset()
		msg, _, err := monocle.ReadMessage(io.TeeReader(src, &buf))
		if err != nil {
			return
		}
		r.record(msg, buf.Len())
		if _, err := dst.Write(buf.Bytes()); err != nil {
			return
		}
	}
}

func (r *relay) record(msg monocle.Message, n int) {
	ev := wireEvent{Conn: r.id, T: r.tr.now(), Bytes: n}
	switch m := msg.(type) {
	case *monocle.FlowMod:
		ev.Kind, ev.Rule = wireFlowMod, m.Cookie
	case *monocle.PacketOut:
		ev.Kind = wirePacketOut
		probeID(&ev, m.Data)
	case *monocle.PacketIn:
		ev.Kind = wirePacketIn
		probeID(&ev, m.Data)
	}
	if ev.Kind == "" {
		return // keepalives and barriers: not probe or rule traffic
	}
	r.tr.mu.Lock()
	r.tr.wire = append(r.tr.wire, ev)
	r.tr.mu.Unlock()
}

// probeID fills the probe identity from a frame's Monocle metadata.
func probeID(ev *wireEvent, frame []byte) {
	_, payload, err := monocle.ParseFrame(frame)
	if err != nil {
		return
	}
	md, err := monocle.UnmarshalProbeMetadata(payload)
	if err != nil {
		return
	}
	ev.Origin, ev.Rule, ev.Seq = md.SwitchID, md.RuleID, md.Seq
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
