package workload

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonWorkload is the stable on-disk schema for user-defined workloads.
type jsonWorkload struct {
	Name string    `json:"name"`
	Apps []jsonApp `json:"apps"`
}

type jsonApp struct {
	Name    string       `json:"name"`
	Threads []jsonThread `json:"threads"`
}

type jsonThread struct {
	// Cache and Mem are the c_j and m_j request rates (requests per
	// microsecond at a 2 GHz clock, the paper's unit).
	Cache float64 `json:"cache"`
	Mem   float64 `json:"mem"`
}

// WriteJSON serializes the workload for editing and sharing.
func WriteJSON(w io.Writer, wl *Workload) error {
	if err := wl.Validate(); err != nil {
		return err
	}
	out := jsonWorkload{Name: wl.Name}
	for i := range wl.Apps {
		app := jsonApp{Name: wl.Apps[i].Name}
		for _, t := range wl.Apps[i].Threads {
			app.Threads = append(app.Threads, jsonThread{Cache: t.CacheRate, Mem: t.MemRate})
		}
		out.Apps = append(out.Apps, app)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON parses a workload written by WriteJSON (or by hand) and
// validates it.
func ReadJSON(r io.Reader) (*Workload, error) {
	var in jsonWorkload
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("workload: decoding: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("workload: trailing data after the JSON object")
	}
	wl := &Workload{Name: in.Name}
	for _, app := range in.Apps {
		a := Application{Name: app.Name}
		for _, t := range app.Threads {
			a.Threads = append(a.Threads, Thread{CacheRate: t.Cache, MemRate: t.Mem})
		}
		wl.Apps = append(wl.Apps, a)
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	return wl, nil
}
