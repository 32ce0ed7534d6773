package service

import (
	"encoding/json"

	"obm/internal/artifact"
	"obm/internal/obs"
)

// RunSchema tags the result envelope every frontend emits.
const RunSchema = "obmsim.run/v1"

// MetricsSchema tags the optional metrics block embedded in the
// envelope and printed by obmsim -metrics.
const MetricsSchema = "obsim.metrics/v1"

// MetricsBlock is the wire form of a metrics snapshot: the registry
// state tagged with its schema.
type MetricsBlock struct {
	Schema string `json:"schema"`
	obs.Snapshot
}

// NewMetricsBlock tags a snapshot for embedding.
func NewMetricsBlock(s obs.Snapshot) *MetricsBlock {
	return &MetricsBlock{Schema: MetricsSchema, Snapshot: s}
}

// ExperimentEntry is one experiment's slot in the envelope: its ID,
// human title, and the experiment's own typed JSON document.
type ExperimentEntry struct {
	ID     string          `json:"id"`
	Title  string          `json:"title"`
	Result json.RawMessage `json:"result"`
}

// envelopeOptions is the envelope's options block: everything a reader
// needs to reproduce the run byte-for-byte. The cache knobs are
// execution-shape provenance — results are bit-identical with or
// without a disk tier.
type envelopeOptions struct {
	Seed      uint64   `json:"seed"`
	Quick     bool     `json:"quick,omitempty"`
	Configs   []string `json:"configs,omitempty"`
	Objective string   `json:"objective,omitempty"`
	CacheDir  string   `json:"cachedir,omitempty"`
	CacheSize int64    `json:"cachesize,omitempty"`
	Stream    string   `json:"stream,omitempty"`
}

// envelopeCache is the envelope's cache block: the artifact encoding
// schema plus the disk tier's configuration when one was requested. It
// deliberately carries no per-run traffic counters — the envelope is a
// pure function of the request and the (content-addressed, therefore
// bit-identical) artifacts, so a cold run, a warm re-run, a CLI
// invocation, and a daemon job all emit identical bytes for the same
// request. Per-run tier traffic is observable through the metrics
// block, obmsim -progress, the daemon's job status, and /metrics.
type envelopeCache struct {
	Dir       string `json:"dir,omitempty"`
	SizeBytes int64  `json:"size_bytes,omitempty"`
	Schema    int    `json:"artifact_schema"`
}

// envelope is the full obmsim.run/v1 document.
type envelope struct {
	Schema      string            `json:"schema"`
	Options     envelopeOptions   `json:"options"`
	Cache       envelopeCache     `json:"cache"`
	Experiments []ExperimentEntry `json:"experiments"`
	Metrics     *MetricsBlock     `json:"metrics,omitempty"`
}

// Envelope assembles the obmsim.run/v1 result document for a request
// and its experiment entries, with a trailing newline, ready to write.
// metrics may be nil (the block is omitted entirely, keeping the
// envelope byte-compatible with consumers that predate it).
//
// This is THE envelope assembly: cmd/obmsim, the daemon, and any other
// frontend call it with the same inputs and get the same bytes.
func Envelope(req Request, entries []ExperimentEntry, metrics *MetricsBlock) ([]byte, error) {
	req = req.Normalized()
	cache := envelopeCache{Schema: artifact.SchemaVersion}
	if req.CacheDir != "" {
		cache.Dir, cache.SizeBytes = req.CacheDir, req.CacheSize
	}
	doc, err := json.MarshalIndent(envelope{
		Schema: RunSchema,
		Options: envelopeOptions{
			Seed:      req.Seed,
			Quick:     req.Quick,
			Configs:   req.Configs,
			Objective: req.Objective,
			CacheDir:  req.CacheDir,
			CacheSize: req.CacheSize,
			Stream:    req.Stream,
		},
		Cache:       cache,
		Experiments: entries,
		Metrics:     metrics,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}
