package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzReadJSON hardens the -workload file reader: anything ReadJSON
// accepts must have finite rate statistics and must survive a
// WriteJSON/ReadJSON round trip unchanged.
func FuzzReadJSON(f *testing.F) {
	for _, name := range ConfigNames() {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, MustConfig(name)); err != nil {
			f.Fatal(err)
		}
		// Compact seeds keep each exec and each minimization cheap.
		var compact bytes.Buffer
		if err := json.Compact(&compact, buf.Bytes()); err != nil {
			f.Fatal(err)
		}
		f.Add(compact.Bytes())
	}
	for _, s := range invalidJSON {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		rs := w.ComputeRateStats()
		for _, v := range []float64{rs.Cache.Mean, rs.Cache.Std, rs.Mem.Mean, rs.Mem.Std} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted workload has rate stats %+v", rs)
			}
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, w); err != nil {
			t.Fatalf("accepted workload does not serialize: %v", err)
		}
		again, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("serialized workload does not re-read: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(w, again) {
			t.Fatalf("round trip changed the workload:\n%+v\n%+v", w, again)
		}
	})
}
