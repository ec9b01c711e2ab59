package monocle

// Crash-safe persistence for the monocled service. A Store is the seam
// the Service writes its cross-restart state through: switch
// registrations, expected-table snapshots (stamped with their
// table-change epoch), the diff engine's folded cross-epoch state, and
// every emitted alert. FileStore is the built-in implementation: one
// append-only JSON-line WAL per switch plus one service-level WAL,
// compacted in place once they accumulate enough superseded records. The
// file discipline (appends, fsync, the torn-tail rule, the atomic
// rewrite) is internal/jsonl's, shared with the session traces. A
// restarted process calls Service.Resume to load the store and pick up
// diffing exactly where the previous process stopped — same epochs, same
// debounce/flap streaks, same outstanding alerts — so a restart raises
// neither a re-confirmation storm nor false rule_recovered alerts.

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"monocle/internal/flowtable"
	"monocle/internal/header"
	"monocle/internal/jsonl"
)

// Store persists the service's cross-restart state. Implementations must
// be safe for concurrent use. Every Save call must be durable when it
// returns (the Service persists a round's alerts before delivering them
// to sinks, so a crash between the two re-delivers rather than loses).
type Store interface {
	// SaveSwitch persists one switch registration.
	SaveSwitch(spec SwitchSpec) error
	// SaveRules persists switch id's full expected rule set as of the
	// given table-change epoch (a snapshot, superseding earlier ones).
	SaveRules(id uint32, epoch uint64, rules []RuleSpec) error
	// SaveRound persists one completed sweep round: the diff engine's
	// folded state and the alerts the round raised.
	SaveRound(state DifferState, alerts []Alert) error
	// SavePolicy persists the active monitoring-policy source text
	// (empty clears it), superseding earlier saves.
	SavePolicy(src string) error
	// Load reads the last persisted state back (an empty, non-nil state
	// when the store is new).
	Load() (*FleetState, error)
	// Close flushes and releases the store.
	Close() error
}

// SwitchState is one switch's slice of a loaded FleetState.
type SwitchState struct {
	// Spec is the switch registration.
	Spec SwitchSpec `json:"spec"`
	// Epoch is the table-change epoch of the Rules snapshot.
	Epoch uint64 `json:"epoch,omitempty"`
	// Rules is the last persisted expected rule set.
	Rules []RuleSpec `json:"rules,omitempty"`
	// Diff is the switch's folded diff state; HasDiff marks it valid
	// (a switch may have been registered but never swept).
	Diff    SwitchDiffState `json:"diff,omitempty"`
	HasDiff bool            `json:"has_diff,omitempty"`
}

// FleetState is everything a Store gives back on Load.
type FleetState struct {
	// Rounds is the completed sweep-round count.
	Rounds uint64 `json:"rounds,omitempty"`
	// AlertSeq is the Differ's alert sequence counter as of the last
	// persisted round, so a Resume continues numbering where the previous
	// process stopped.
	AlertSeq uint64 `json:"alert_seq,omitempty"`
	// Switches holds the per-switch state, keyed by switch id.
	Switches map[uint32]SwitchState `json:"switches,omitempty"`
	// Alerts is the retained alert history, oldest first.
	Alerts []Alert `json:"alerts,omitempty"`
	// Policy is the last persisted monitoring-policy source text ("" when
	// none was ever saved or the last save cleared it).
	Policy string `json:"policy,omitempty"`
}

// walRecord is one WAL line. Kind selects which payload fields are set:
// "spec" (Spec), "rules" (Epoch, Rules), "diff" (Diff), "round" (Rounds),
// "alert" (Alert), "policy" (Policy). Seq is a store-global monotonic
// sequence number stamped on every appended record.
type walRecord struct {
	Kind     string           `json:"kind"`
	Seq      uint64           `json:"seq"`
	Spec     *SwitchSpec      `json:"spec,omitempty"`
	Epoch    uint64           `json:"epoch,omitempty"`
	Rules    []RuleSpec       `json:"rules,omitempty"`
	Diff     *SwitchDiffState `json:"diff,omitempty"`
	Rounds   uint64           `json:"rounds,omitempty"`
	AlertSeq uint64           `json:"alert_seq,omitempty"`
	Alert    *Alert           `json:"alert,omitempty"`
	Policy   string           `json:"policy,omitempty"`
}

const (
	// compactEvery bounds how many records a WAL accumulates beyond its
	// compacted form before it is rewritten in place.
	compactEvery = 256
	// alertKeep bounds how many alerts survive a compaction (matches the
	// default RingSink capacity).
	alertKeep = 4096
)

// FileStore is the built-in Store: a state directory holding one
// append-only JSON-line WAL per switch (switch-<id>.wal) plus a
// service-level WAL (service.wal) for the round counter and the alert
// history. Each Save call fsyncs every WAL it touched once; compaction
// rewrites a WAL through a temporary file and an atomic rename, so a crash
// at any point leaves either the old or the new file, never a mix. A
// truncated final line (crash mid-append) is ignored on load and cut off
// before the next append.
type FileStore struct {
	dir string

	mu    sync.Mutex
	seq   uint64
	files map[string]*walFile
}

// walFile is one WAL open for appending. appends counts the records a
// compaction could drop: those superseded when the file was opened, plus
// every record appended since.
type walFile struct {
	w       *jsonl.Writer
	appends int
}

// OpenFileStore opens (creating if needed) the state directory as a
// FileStore. Orphaned compaction temporaries (a crash between the tmp
// write and the atomic rename) are swept away: the un-renamed WAL is
// still the authoritative state, and the next compaction will rewrite it.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("monocle: state dir: %w", err)
	}
	jsonl.SweepTemps(dir, "*.wal")
	return &FileStore{dir: dir, files: make(map[string]*walFile)}, nil
}

// Dir returns the state directory.
func (fs *FileStore) Dir() string { return fs.dir }

func switchWALName(id uint32) string { return fmt.Sprintf("switch-%d.wal", id) }

const serviceWALName = "service.wal"

// SaveSwitch implements Store.
func (fs *FileStore) SaveSwitch(spec SwitchSpec) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.appendLocked(switchWALName(spec.ID), walRecord{Kind: "spec", Spec: &spec})
}

// SaveRules implements Store.
func (fs *FileStore) SaveRules(id uint32, epoch uint64, rules []RuleSpec) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if rules == nil {
		rules = []RuleSpec{} // distinguish "empty table" from "no snapshot"
	}
	return fs.appendLocked(switchWALName(id), walRecord{Kind: "rules", Epoch: epoch, Rules: rules})
}

// SaveRound implements Store.
func (fs *FileStore) SaveRound(state DifferState, alerts []Alert) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ids := make([]uint32, 0, len(state.Switches))
	for id := range state.Switches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var errs []error
	for _, id := range ids {
		d := state.Switches[id]
		errs = append(errs, fs.appendLocked(switchWALName(id), walRecord{Kind: "diff", Diff: &d}))
	}
	recs := []walRecord{{Kind: "round", Rounds: state.Rounds, AlertSeq: state.Seq}}
	for i := range alerts {
		recs = append(recs, walRecord{Kind: "alert", Alert: &alerts[i]})
	}
	errs = append(errs, fs.appendLocked(serviceWALName, recs...))
	return errors.Join(errs...)
}

// SavePolicy implements Store.
func (fs *FileStore) SavePolicy(src string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.appendLocked(serviceWALName, walRecord{Kind: "policy", Policy: src})
}

// appendLocked stamps and appends recs to one WAL, fsyncs it once, and
// compacts it once it holds compactEvery records beyond its compacted
// form. On an error it closes the WAL, so the next append reopens it after
// the last whole record.
func (fs *FileStore) appendLocked(name string, recs ...walRecord) error {
	wf := fs.files[name]
	if wf == nil {
		w, held, err := jsonl.Open[walRecord](filepath.Join(fs.dir, name))
		if err != nil {
			return err
		}
		wf = &walFile{w: w, appends: len(held) - len(compact(held))}
		fs.files[name] = wf
	}
	var err error
	for i := 0; i < len(recs) && err == nil; i++ {
		fs.seq++
		recs[i].Seq = fs.seq
		err = wf.w.Append(recs[i])
	}
	if err == nil {
		err = wf.w.Sync()
	}
	if err != nil {
		fs.closeLocked(name)
		return err
	}
	if wf.appends += len(recs); wf.appends >= compactEvery {
		return fs.compactLocked(name)
	}
	return nil
}

// compactLocked rewrites one WAL to the records compact keeps and appends
// to the new file from then on.
func (fs *FileStore) compactLocked(name string) error {
	path := filepath.Join(fs.dir, name)
	recs, err := jsonl.Read[walRecord](path)
	if err != nil {
		return err
	}
	w, err := jsonl.Rewrite(path, compact(recs))
	if err != nil {
		return err
	}
	fs.closeLocked(name) // synced before the rewrite, and replaced by it
	fs.files[name] = &walFile{w: w}
	return nil
}

// compact returns the records of one WAL that a compaction keeps, in file
// order: the latest record of each kind, and the last alertKeep alerts.
func compact(recs []walRecord) []walRecord {
	last := make(map[string]int)
	alerts := 0
	for i, r := range recs {
		last[r.Kind] = i
		if r.Kind == "alert" {
			alerts++
		}
	}
	var keep []walRecord
	for i, r := range recs {
		if r.Kind == "alert" {
			alerts--
			if alerts < alertKeep {
				keep = append(keep, r)
			}
		} else if last[r.Kind] == i {
			keep = append(keep, r)
		}
	}
	return keep
}

// closeLocked closes one WAL's append handle, if it is open.
func (fs *FileStore) closeLocked(name string) error {
	wf := fs.files[name]
	if wf == nil {
		return nil
	}
	delete(fs.files, name)
	return wf.w.Close()
}

// Load implements Store.
func (fs *FileStore) Load() (*FleetState, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	state := &FleetState{Switches: make(map[uint32]SwitchState)}
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "switch-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		id64, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "switch-"), ".wal"), 10, 32)
		if err != nil {
			continue
		}
		recs, err := jsonl.Read[walRecord](filepath.Join(fs.dir, name))
		if err != nil {
			return nil, err
		}
		var st SwitchState
		var haveSpec, haveRules bool
		for _, r := range recs {
			fs.seq = max(fs.seq, r.Seq)
			switch r.Kind {
			case "spec":
				if r.Spec != nil {
					st.Spec = *r.Spec
					haveSpec = true
				}
			case "rules":
				st.Epoch = r.Epoch
				st.Rules = r.Rules
				haveRules = true
			case "diff":
				if r.Diff != nil {
					st.Diff = *r.Diff
					st.HasDiff = true
				}
			}
		}
		if haveSpec || haveRules || st.HasDiff {
			state.Switches[uint32(id64)] = st
		}
	}
	recs, err := jsonl.Read[walRecord](filepath.Join(fs.dir, serviceWALName))
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		fs.seq = max(fs.seq, r.Seq)
		switch r.Kind {
		case "round":
			state.Rounds = r.Rounds
			state.AlertSeq = r.AlertSeq
		case "policy":
			state.Policy = r.Policy
		case "alert":
			if r.Alert != nil {
				state.Alerts = append(state.Alerts, *r.Alert)
			}
		}
	}
	if len(state.Alerts) > alertKeep {
		state.Alerts = state.Alerts[len(state.Alerts)-alertKeep:]
	}
	return state, nil
}

// Close implements Store.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var errs []error
	for name := range fs.files {
		errs = append(errs, fs.closeLocked(name))
	}
	return errors.Join(errs...)
}

// ruleSpecs converts installed rules back to their JSON wire form — the
// inverse of RuleSpec.Rule — so expected-table snapshots round-trip
// through the store bit-identically.
func ruleSpecs(rules []*Rule) []RuleSpec {
	out := make([]RuleSpec, 0, len(rules))
	for _, r := range rules {
		out = append(out, ruleSpec(r))
	}
	return out
}

// ruleSpec converts one rule to its JSON wire form.
func ruleSpec(r *Rule) RuleSpec {
	rs := RuleSpec{ID: r.ID, Priority: r.Priority}
	for f := FieldID(0); f < NumFields; f++ {
		t := r.Match[f]
		if t.Mask == 0 {
			continue // wildcard
		}
		if rs.Match == nil {
			rs.Match = make(map[string]string)
		}
		rs.Match[f.String()] = ternaryString(f, t)
	}
	for _, a := range r.Actions {
		rs.Actions = append(rs.Actions, actionSpec(a))
	}
	return rs
}

// ternaryString renders one match cell in the form parseTernary accepts:
// a bare value for exact matches, value/prefixlen for contiguous prefix
// masks, and value&mask for arbitrary ternary masks.
func ternaryString(f FieldID, t Ternary) string {
	full := header.WidthMask(f)
	if t.Mask == full {
		return strconv.FormatUint(t.Value, 10)
	}
	ones := bits.OnesCount64(t.Mask)
	if t.Mask == full&^(full>>uint(ones)) {
		return fmt.Sprintf("%d/%d", t.Value, ones)
	}
	return fmt.Sprintf("0x%x&0x%x", t.Value, t.Mask)
}

// actionSpec converts one action to its JSON wire form.
func actionSpec(a Action) ActionSpec {
	switch a.Kind {
	case flowtable.ActionOutput:
		return ActionSpec{Output: uint16(a.Port)}
	case flowtable.ActionGroupECMP:
		ports := make([]uint16, len(a.Ports))
		for i, p := range a.Ports {
			ports[i] = uint16(p)
		}
		return ActionSpec{ECMP: ports}
	default: // ActionSetField
		return ActionSpec{Set: &SetFieldSpec{Field: a.Field.String(), Value: a.Value}}
	}
}
