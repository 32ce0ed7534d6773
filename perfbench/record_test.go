package main

import (
	"errors"
	"io"
	"math"
	"path/filepath"
	"testing"
	"time"

	"obm/internal/artifact"
)

func TestCompareRefusesOtherHostShapes(t *testing.T) {
	dir := t.TempDir()
	a := record{Host: hostStamp{NumCPU: 2, GOMAXPROCS: 2, GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24.0"}, Workload: "churn",
		Metrics: map[string]metricOut{"run_s": {1, "s"}}}
	b := a
	b.Metrics = map[string]metricOut{"run_s": {1.1, "s"}}
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, w := range []struct {
		path string
		r    record
	}{{pa, a}, {pb, b}} {
		if err := writeJSONFile(w.path, w.r); err != nil {
			t.Fatal(err)
		}
	}
	if err := compareRecords(io.Discard, pa, pb); err != nil {
		t.Fatalf("same host shape: %v", err)
	}
	for _, change := range []func(*hostStamp){
		func(h *hostStamp) { h.NumCPU = 8 },
		func(h *hostStamp) { h.GOMAXPROCS = 1 },
		func(h *hostStamp) { h.GoVersion = "go1.25.0" },
	} {
		b2 := b
		change(&b2.Host)
		if err := writeJSONFile(pb, b2); err != nil {
			t.Fatal(err)
		}
		if err := compareRecords(io.Discard, pa, pb); !errors.Is(err, errShape) {
			t.Errorf("host %s vs %s: got %v, want a refusal", a.Host.shape(), b2.Host.shape(), err)
		}
	}
}

func TestPinsCatchChangedEnvelopes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pins.json")
	p, err := loadPins(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.check("req", "aaa"); err != nil {
		t.Fatal(err)
	}
	if err := p.save(); err != nil {
		t.Fatal(err)
	}
	again, err := loadPins(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.check("req", "aaa"); err != nil {
		t.Errorf("same digest rejected: %v", err)
	}
	if err := again.check("req", "bbb"); err == nil {
		t.Error("changed digest accepted")
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	wu := artifact.NewWorkUnit("prob(n=64)", "sa(iters=10,seed=3)", "max")
	got, err := parseKey(wu.Key())
	if err != nil || got != wu {
		t.Fatalf("parseKey(%q) = %+v, %v; want %+v", wu.Key(), got, err, wu)
	}
	if _, err := parseKey("garbage"); err == nil {
		t.Error("parseKey accepted a key without fields")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.base.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 0, at(0), at(100))
	tr.add("child", root, at(10), at(30))
	tr.add("child", root, at(20), at(40))  // overlaps the first child
	tr.add("child", root, at(90), at(120)) // runs past its parent
	self := tr.selfTimes()
	if want := 100*time.Millisecond - 30*time.Millisecond - 10*time.Millisecond; self["root"] != want {
		t.Errorf("root self time %v, want %v", self["root"], want)
	}
	if want := 70 * time.Millisecond; self["child"] != want {
		t.Errorf("child self time %v, want %v", self["child"], want)
	}
	var untraced *tracer
	if id := untraced.begin("x", 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	untraced.end(0)
}

func TestFidelityParsers(t *testing.T) {
	table := func(headers []string, rows ...[]string) resultDoc {
		return resultDoc{Blocks: []block{{Kind: "table", Headers: headers, Rows: rows}}}
	}
	fig9 := resultDoc{Blocks: []block{{Kind: "series", Labels: []string{"Global", "MC", "SA", "SSS"}, Series: []float64{20, 19, 18.5, 18}}}}
	if v, err := sssRedux(fig9); err != nil || math.Abs(v-10) > 1e-9 {
		t.Errorf("sssRedux = %v, %v; want 10", v, err)
	}
	val := table([]string{"App", "model APL", "measured APL", "error", "packets"}, []string{"1", "20", "19.5", "-0.50", "9"}, []string{"2", "20", "21", "+1.00", "9"})
	if v, err := modelErr(val); err != nil || v != 0.75 {
		t.Errorf("modelErr = %v, %v; want 0.75", v, err)
	}
	dyn := table([]string{"Scheme", "dev-APL"}, []string{"spiral/never", "0.6"}, []string{"spiral+warm/adaptive", "0.45"})
	if v, err := adaptiveDevAPL(dyn); err != nil || v != 0.45 {
		t.Errorf("adaptiveDevAPL = %v, %v; want 0.45", v, err)
	}
	if _, err := adaptiveDevAPL(table([]string{"Scheme", "dev-APL"})); err == nil {
		t.Error("adaptiveDevAPL found a row in an empty table")
	}
}
