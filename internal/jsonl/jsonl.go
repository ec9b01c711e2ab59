// Package jsonl is the JSON-lines file discipline shared by the store's
// write-ahead logs, the session traces and the coordinator's ndjson
// fan-in. A log is one JSON record per line; blank lines are skipped. A
// crash mid-append leaves a torn last line, so a log ends at the first
// line that does not decode: readers stop there, and Open cuts a file
// back to that point before appending, so a record written after a crash
// is never hidden behind the torn line.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// maxLine caps one line; a longer line ends the input like a torn one.
const maxLine = 16 << 20

// tmpInfix joins a rewritten file's name and its temporary's suffix.
const tmpInfix = ".tmp-"

// Decoder reads the records of one log in order.
type Decoder struct {
	sc  *bufio.Scanner
	off int64 // offset just past the last line scanned
	end int64 // offset just past the last record Next accepted
}

// NewDecoder returns a Decoder reading r.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{sc: bufio.NewScanner(r)}
	d.sc.Buffer(nil, maxLine)
	d.sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		d.off += int64(adv)
		return adv, tok, err
	})
	return d
}

// line returns the next non-blank line, or nil at the end of the input.
func (d *Decoder) line() []byte {
	for d.sc.Scan() {
		if l := bytes.TrimSpace(d.sc.Bytes()); len(l) > 0 {
			return l
		}
	}
	return nil
}

// Next decodes the next record into v. It returns false where the log
// ends: at the end of the input, or at the first line that does not decode
// into v; the caller stops there. A read error also ends the log.
func (d *Decoder) Next(v any) bool {
	if l := d.line(); l == nil || json.Unmarshal(l, v) != nil {
		return false
	}
	d.end = d.off
	return true
}

// err returns the read error that ended the input, if any. An over-long
// line is not an error: it ends the log.
func (d *Decoder) err() error {
	if err := d.sc.Err(); !errors.Is(err, bufio.ErrTooLong) {
		return err
	}
	return nil
}

// Lines calls fn on every non-blank line of r in order, stopping at fn's
// first error, which it returns. The slice is only valid during the call.
func Lines(r io.Reader, fn func(line []byte) error) error {
	d := NewDecoder(r)
	for l := d.line(); l != nil; l = d.line() {
		if err := fn(l); err != nil {
			return err
		}
	}
	return d.err()
}

// decode reads every record of r and the offset just past the last one.
func decode[T any](r io.Reader) ([]T, int64, error) {
	d := NewDecoder(r)
	var recs []T
	for {
		var rec T
		if !d.Next(&rec) {
			return recs, d.end, d.err()
		}
		recs = append(recs, rec)
	}
}

// Read returns the records of the log at path; a missing file holds none.
func Read[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, _, err := decode[T](f)
	return recs, err
}

// Writer appends records to a log, one line each, into a buffer that
// Sync writes out.
type Writer struct {
	f *os.File // nil when not backed by a file
	w *bufio.Writer
}

// NewWriter returns a Writer on w, which Sync cannot fsync and Close
// leaves open.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Open opens the log at path for appending, creating it if needed, and
// returns the records it holds. It first cuts the file back to the end of
// the last record a reader accepts, so a reader finds the next append
// right after that record.
func Open[T any](path string) (*Writer, []T, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, end, err := decode[T](f)
	if err == nil {
		err = f.Truncate(end)
	}
	w := &Writer{f: f, w: bufio.NewWriter(f)}
	if last := []byte{'\n'}; err == nil && end > 0 {
		// The last record may be whole but for its newline.
		if _, err = f.ReadAt(last, end-1); err == nil && last[0] != '\n' {
			err = w.w.WriteByte('\n')
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, recs, nil
}

// Append encodes v as one line into the buffer.
func (w *Writer) Append(v any) error {
	line, err := json.Marshal(v)
	if err == nil {
		_, err = w.w.Write(append(line, '\n'))
	}
	return err
}

// Sync writes the buffer out and fsyncs the file, if there is one: when
// it returns nil, every record appended before it is durable.
func (w *Writer) Sync() error {
	err := w.w.Flush()
	if err == nil && w.f != nil {
		err = w.f.Sync()
	}
	return err
}

// Close syncs w and closes its file.
func (w *Writer) Close() error {
	err := w.Sync()
	if w.f != nil {
		err = errors.Join(err, w.f.Close())
	}
	return err
}

// Rewrite replaces the file at path with recs, one line each, and returns
// a Writer appending to the new file. It writes a temporary file in the
// same directory, fsyncs it and renames it over path, so a crash at any
// point leaves either the old file or the new.
func Rewrite[T any](path string, recs []T) (*Writer, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tmpInfix)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: tmp, w: bufio.NewWriter(tmp)}
	err = tmp.Chmod(0o644) // the mode Open creates files with
	for i := 0; i < len(recs) && err == nil; i++ {
		err = w.Append(recs[i])
	}
	if err == nil {
		err = w.Sync()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return w, nil
}

// SweepTemps removes the temporaries a crash inside Rewrite left in dir
// for the files matching pattern. They were never renamed, so the file
// each was meant to replace still holds the log.
func SweepTemps(dir, pattern string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if ok, _ := filepath.Match(pattern+tmpInfix+"*", e.Name()); ok {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
