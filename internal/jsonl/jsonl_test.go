package jsonl

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type rec struct {
	K string `json:"k"`
	N int    `json:"n"`
}

// FuzzAppendAfterCrash checks the crash invariant every log relies on:
// whatever bytes a crash left in a file, opening it for append and
// appending one record reads back as exactly the records a reader
// accepted from those bytes, followed by the new one.
func FuzzAppendAfterCrash(f *testing.F) {
	for _, s := range []string{
		// A torn last line: the writer died mid-append.
		"{\"k\":\"a\",\"n\":1}\n{\"k\":\"b\",\"n\":2}\n{\"k\":\"c\",\"n",
		// A corrupt line in the middle ends the log there.
		"{\"k\":\"a\",\"n\":1}\n{\"k\":\"b\",\"n\":\"two\"}\n{\"k\":\"c\",\"n\":3}\n",
		// Blank lines only.
		"\n \n\t\n",
		// An empty file.
		"",
		// A whole last record that lost only its newline.
		"{\"k\":\"a\",\"n\":1}\r\n{\"k\":\"b\",\"n\":2}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, _, err := decode[rec](bytes.NewReader(data))
		if err != nil {
			t.Fatalf("decoding the input: %v", err)
		}
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, held, err := Open[rec](path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(held, want) {
			t.Fatalf("Open reported %+v, a reader accepts %+v", held, want)
		}
		next := rec{K: "next", N: len(want)}
		if err := w.Append(next); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Read[rec](path)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, next); !reflect.DeepEqual(got, want) {
			t.Fatalf("read back %+v, want %+v", got, want)
		}
	})
}
