package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzSubmitRequest hardens the daemon's job intake, which reads
// untrusted JSON: decodeSubmit (decode plus the per-job cache-knob
// check) followed by Request.Resolve, exactly as POST /v1/jobs runs
// them. It must never panic; every rejection is a decode error or wraps
// ErrBadRequest (so the daemon answers 400); an accepted request's
// normalization is idempotent and it assembles an envelope.
func FuzzSubmitRequest(f *testing.F) {
	for _, body := range []string{
		// The CI daemon smoke's submissions.
		`{"experiments":["table1"],"quick":true}`,
		`{"experiments":["fig9"],"quick":true}`,
		`{"experiments":["dynstream"],"quick":true}`,
		`{"experiments":["pareto"],"quick":true}`,
		`{"experiments":["dynamic"],"quick":true}`,
		`{"experiments":["gap"],"quick":true}`,
		`{"experiments":["loadsweep"],"quick":true}`,
		`{"experiments":["ablation"],"quick":true}`,
		`{"experiments":["scaling"],"quick":true}`,
		// Every other field, and the rejections around them.
		`{"experiments":["all"],"seed":7,"configs":["C1","C5"],"objective":"weighted:max=1,dev=2"}`,
		`{"experiments":["dynstream"],"quick":true,"stream":"load=0.8,maxthreads=24"}`,
		`{"experiments":["dynstream"],"stream":"gap=NaN"}`,
		`{"experiments":["dynstream"],"stream":"threadsigma=1e6"}`,
		`{"experiments":["fig5"],"cachedir":"/tmp/x"}`,
		`{"experiments":["fig5"],"cachesize":-1}`,
		`{"experiments":["fig5"],"objective":"weighted:max=nan"}`,
		`{"experiments":["fig5"],"configs":["C99"]}`,
		`{"experiments":[]}`, `{"experiments":["nope"]}`, `{"seed":-1}`,
		`{}`, `null`, `[]`, ``, `{"experiments":`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeSubmit(bytes.NewReader(data))
		if err == nil {
			_, _, err = req.Resolve()
		}
		if err != nil {
			if errors.Is(err, ErrBadRequest) {
				return
			}
			var probe Request
			if json.NewDecoder(bytes.NewReader(data)).Decode(&probe) == nil {
				t.Fatalf("%q: rejection %v is neither a decode error nor ErrBadRequest", data, err)
			}
			return
		}
		n := req.Normalized()
		if again := n.Normalized(); !reflect.DeepEqual(again, n) {
			t.Fatalf("%q: Normalized not idempotent: %+v then %+v", data, n, again)
		}
		if _, err := Envelope(req, nil, nil); err != nil {
			t.Fatalf("%q: accepted request has no envelope: %v", data, err)
		}
	})
}
