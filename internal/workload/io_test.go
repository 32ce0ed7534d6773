package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	w := MustConfig("C2")
	var buf bytes.Buffer
	if err := WriteJSON(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name || got.NumApps() != w.NumApps() || got.NumThreads() != w.NumThreads() {
		t.Fatalf("shape mismatch: %s %d/%d", got.Name, got.NumApps(), got.NumThreads())
	}
	a, b := w.Threads(), got.Threads()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("thread %d mismatch: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWriteJSONRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, &Workload{Name: "empty"}); err == nil {
		t.Error("invalid workload serialized")
	}
}

// invalidJSON lists inputs ReadJSON must reject; FuzzReadJSON seeds
// its corpus with them too.
var invalidJSON = []string{
	``,
	`{`,
	`{"name":"x","apps":[]}`,
	`{"name":"x","apps":[{"name":"a","threads":[]}]}`,
	`{"name":"x","apps":[{"name":"a","threads":[{"cache":-1,"mem":0}]}]}`,
	`{"name":"x","bogus":1,"apps":[{"name":"a","threads":[{"cache":1,"mem":0}]}]}`,
	`{"name":"x","apps":[{"name":"a","threads":[{"cache":1,"mem":0}]}]} trailing garbage {`,
	`{"name":"x","apps":[{"name":"a","threads":[{"cache":1e308,"mem":0}]}]}`,
}

func TestReadJSONValidation(t *testing.T) {
	for i, c := range invalidJSON {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestReadJSONHandWritten(t *testing.T) {
	src := `{
	  "name": "custom",
	  "apps": [
	    {"name": "db", "threads": [{"cache": 5, "mem": 1}, {"cache": 4, "mem": 0.5}]},
	    {"name": "web", "threads": [{"cache": 1, "mem": 0.1}]}
	  ]
	}`
	w, err := ReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumApps() != 2 || w.NumThreads() != 3 {
		t.Fatalf("parsed %d apps %d threads", w.NumApps(), w.NumThreads())
	}
	if w.Apps[0].Threads[1].CacheRate != 4 {
		t.Error("rates not parsed")
	}
}
