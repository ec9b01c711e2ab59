package monocle

// Backend session traces: the append-only JSON-line format RecordBackend
// writes and ReplayBackend re-serves. A trace is one switch's complete
// driver history — every Connect/Apply/Observe/Epoch call with its
// outcome, every BackendEvent, and the service-layer markers (switch
// spec, rule operations, sweep-round boundaries) that let cmd/monotrace
// re-drive the whole session through a fresh Service. The file is a
// JSON-lines log written and read through internal/jsonl, like the
// store's WALs: a versioned header line, fsync-batched appends, and
// torn-tail-tolerant reads (a crash mid-append loses at most the unflushed
// tail, never the parse).

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"monocle/internal/jsonl"
)

// TraceVersion is the trace format version this build writes and reads.
const TraceVersion = 1

// ErrTraceVersion reports a trace written by an incompatible format
// version.
var ErrTraceVersion = errors.New("monocle: unsupported trace version")

// errNoTraceHeader reports a stream that does not start with a trace
// header line.
var errNoTraceHeader = errors.New("monocle: missing trace header")

// TraceHeader is the first line of every trace file. The Version field
// marshals under the key "monocle_trace", doubling as the file's magic.
type TraceHeader struct {
	// Version is the trace format version (TraceVersion).
	Version int `json:"monocle_trace"`
	// Switch is the recorded switch's id.
	Switch uint32 `json:"switch,omitempty"`
	// Note is a free-form annotation (who recorded, why).
	Note string `json:"note,omitempty"`
}

// Trace record kinds. Call records (connect, apply, observe, close) are
// consumed in strict order by ReplayBackend; event records re-emit on the
// replay's Events stream at the position they were recorded; annotation
// records (epoch, spec, rule_op, round) carry session context for offline
// replay drivers and are skipped by the backend-call cursor.
const (
	// TraceKindConnect records one Backend.Connect call and its error.
	TraceKindConnect = "connect"
	// TraceKindClose records the Backend.Close call ending the session.
	TraceKindClose = "close"
	// TraceKindApply records one Backend.Apply call: the operation, the
	// driver's post-apply epoch, and the error.
	TraceKindApply = "apply"
	// TraceKindObserve records one Backend.Observe call: the probe's
	// header (the replay matching key), the expectation, and the verdict
	// or error the data plane produced.
	TraceKindObserve = "observe"
	// TraceKindEpoch annotates an explicit Backend.Epoch poll.
	TraceKindEpoch = "epoch"
	// TraceKindEvent records one BackendEvent from the driver's stream.
	TraceKindEvent = "event"
	// TraceKindSpec annotates the SwitchSpec the switch was added with.
	TraceKindSpec = "spec"
	// TraceKindRuleOp annotates one service-level rule operation
	// (Service.ApplyRule, or an InstallRules entry with Dataplane
	// "install").
	TraceKindRuleOp = "rule_op"
	// TraceKindRound annotates the start of one sweep round.
	TraceKindRound = "round"
)

// TraceOp is the serialized form of one BackendOp.
type TraceOp struct {
	Op      string       `json:"op"`
	ID      uint64       `json:"id,omitempty"`
	Rule    *RuleSpec    `json:"rule,omitempty"`
	Actions []ActionSpec `json:"actions,omitempty"`
}

// TraceEvent is the serialized form of one BackendEvent.
type TraceEvent struct {
	Type   string `json:"type"`
	Rule   uint64 `json:"rule,omitempty"`
	Err    string `json:"err,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// TraceRecord is one trace line. Kind selects which payload fields are
// meaningful. Seq is a per-trace monotonic sequence number; T is the
// record's clock offset in nanoseconds from the start of the recording.
type TraceRecord struct {
	Seq  uint64 `json:"seq"`
	T    int64  `json:"t,omitempty"`
	Kind string `json:"kind"`
	// Op is the applied operation (kind "apply").
	Op *TraceOp `json:"op,omitempty"`
	// Probe is the observed probe (kind "observe"); its Header is the
	// replay matching key.
	Probe *ProbeRecord `json:"probe,omitempty"`
	// RuleID is the observed probe's rule id (kind "observe").
	RuleID uint64 `json:"rule_id,omitempty"`
	// Expect is the observation's expectation name (kind "observe").
	Expect string `json:"expect,omitempty"`
	// Verdict is the data plane's judgement (kind "observe").
	Verdict string `json:"verdict,omitempty"`
	// Err is the call's error text ("" for success).
	Err string `json:"err,omitempty"`
	// Epoch is the driver epoch after the call (kinds "connect",
	// "apply", "epoch").
	Epoch uint64 `json:"epoch,omitempty"`
	// Event is the driver lifecycle event (kind "event").
	Event *TraceEvent `json:"event,omitempty"`
	// Spec is the switch registration (kind "spec").
	Spec *SwitchSpec `json:"spec,omitempty"`
	// RuleOp is the service-level rule operation (kind "rule_op").
	RuleOp *RuleOp `json:"rule_op,omitempty"`
	// Round is the sweep round number (kind "round").
	Round uint64 `json:"round,omitempty"`
}

// Trace is one decoded trace: the header plus every intact record in
// file order.
type Trace struct {
	Header  TraceHeader
	Records []TraceRecord
}

// traceSyncEvery bounds how many appended records may ride one fsync:
// the writer batches flushes so a probe-per-record sweep does not pay a
// disk sync per probe, and a crash loses at most the last batch.
const traceSyncEvery = 32

// TraceWriter appends records to one trace. It is safe for concurrent
// use (a recording driver appends from the caller's goroutine and its
// event pump concurrently).
type TraceWriter struct {
	mu     sync.Mutex
	w      *jsonl.Writer
	seq    uint64
	start  time.Time
	closed bool
}

// CreateTrace creates a trace file at path, replacing any file there once
// the new one's header is durable.
func CreateTrace(path string, hdr TraceHeader) (*TraceWriter, error) {
	w, err := jsonl.Rewrite(path, []TraceHeader{hdr.versioned()})
	if err != nil {
		return nil, fmt.Errorf("monocle: trace: %w", err)
	}
	return &TraceWriter{w: w, start: time.Now()}, nil
}

// NewTraceWriter writes a trace to an arbitrary writer (tests, pipes);
// durability batching applies only to file-backed writers.
func NewTraceWriter(w io.Writer, hdr TraceHeader) (*TraceWriter, error) {
	tw := &TraceWriter{w: jsonl.NewWriter(w), start: time.Now()}
	if err := tw.w.Append(hdr.versioned()); err != nil {
		return nil, err
	}
	if err := tw.w.Sync(); err != nil {
		return nil, err
	}
	return tw, nil
}

// versioned returns h with the zero Version defaulted to TraceVersion.
func (h TraceHeader) versioned() TraceHeader {
	if h.Version == 0 {
		h.Version = TraceVersion
	}
	return h
}

// Append stamps rec with the next sequence number and its clock offset,
// encodes it as one line, and schedules it for the next fsync batch.
func (tw *TraceWriter) Append(rec TraceRecord) error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.closed {
		return fmt.Errorf("monocle: trace writer closed")
	}
	tw.seq++
	rec.Seq = tw.seq
	rec.T = time.Since(tw.start).Nanoseconds()
	if err := tw.w.Append(rec); err != nil {
		return err
	}
	if tw.seq%traceSyncEvery == 0 {
		return tw.w.Sync()
	}
	return nil
}

// Flush forces the pending batch to durable storage.
func (tw *TraceWriter) Flush() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.closed {
		return nil
	}
	return tw.w.Sync()
}

// Close flushes and closes the trace. Idempotent.
func (tw *TraceWriter) Close() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.closed {
		return nil
	}
	tw.closed = true
	return tw.w.Close()
}

// ReadTraceFile decodes the trace at path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("monocle: trace: %w", err)
	}
	defer f.Close()
	return DecodeTrace(f)
}

// DecodeTrace decodes one trace stream: the header line, then every
// record up to (not including) the first torn or corrupt line — the
// signature of a crash mid-append, tolerated exactly like the store's
// WALs. A missing header or an unsupported version is an error; torn
// tails are not.
func DecodeTrace(r io.Reader) (*Trace, error) {
	d := jsonl.NewDecoder(r)
	tr := &Trace{}
	if !d.Next(&tr.Header) || tr.Header.Version == 0 {
		return nil, errNoTraceHeader
	}
	if tr.Header.Version != TraceVersion {
		return nil, fmt.Errorf("%w: %d (this build reads %d)", ErrTraceVersion, tr.Header.Version, TraceVersion)
	}
	for rec := (TraceRecord{}); d.Next(&rec); rec = (TraceRecord{}) {
		if rec.Kind != "" { // an unknown/foreign line is skipped, not fatal
			tr.Records = append(tr.Records, rec)
		}
	}
	return tr, nil
}
