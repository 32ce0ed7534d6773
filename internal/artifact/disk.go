package artifact

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"obm/internal/obs"
)

// Disk-tier metrics: process-wide (every DiskTier instance feeds them),
// mirrored next to the in-memory tier's counters so cmd/obmsim's
// metrics block shows artifact reuse per tier.
var (
	mDiskHits      = obs.Default().Counter("artifact.disk.hits")
	mDiskMisses    = obs.Default().Counter("artifact.disk.misses")
	mDiskEvictions = obs.Default().Counter("artifact.disk.evictions")
	mDiskCorrupt   = obs.Default().Counter("artifact.disk.corrupt")
	mDiskSchema    = obs.Default().Counter("artifact.disk.schema_mismatch")
	mDiskWriteErrs = obs.Default().Counter("artifact.disk.write_errors")
	mDiskBytes     = obs.Default().Gauge("artifact.disk.bytes")
	mDiskEntries   = obs.Default().Gauge("artifact.disk.entries")
)

// ext is the artifact file suffix; temp files use tmpPattern and are
// swept on open so a crashed writer can never poison the directory.
const (
	ext        = ".obma"
	tmpPattern = ".tmp-*"
)

// DiskTier is the persistent half of the two-tier store: one artifact
// per file, content-addressed by the SHA-256 of the WorkUnit key,
// bounded by a byte budget with least-recently-used eviction. It is
// safe for concurrent use within a process, and safe to share a
// directory across processes: writes are temp-file + atomic rename, a
// concurrent eviction under a reader degrades to a miss, and files
// written by another process after startup are adopted on first read.
type DiskTier struct {
	dir      string
	maxBytes int64 // <= 0 means unbounded

	mu    sync.Mutex
	byKey map[string]*list.Element // WorkUnit key -> lru element
	lru   *list.List               // front = most recently used *dentry
	total int64

	evictions, corrupt, schemaMismatch uint64 // per-tier counters for Stats
}

// dentry is one resident artifact file.
type dentry struct {
	key  string
	path string
	size int64
}

// OpenDisk opens (creating if needed) a disk tier rooted at dir with
// the given byte budget (maxBytes <= 0 disables eviction). It warms
// the tier by scanning existing artifact files — recency order is
// recovered from file modification times, which Get refreshes on every
// hit — sweeps stale temp files, and immediately enforces the budget.
func OpenDisk(dir string, maxBytes int64) (*DiskTier, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: disk tier needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: opening disk tier: %w", err)
	}
	d := &DiskTier{dir: dir, maxBytes: maxBytes, byKey: make(map[string]*list.Element), lru: list.New()}
	if err := d.warm(); err != nil {
		return nil, err
	}
	return d, nil
}

// warm scans dir, indexing every artifact file oldest-first so the LRU
// order survives process restarts, and removes leftover temp files.
func (d *DiskTier) warm() error {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("artifact: warming disk tier: %w", err)
	}
	type resident struct {
		path  string
		size  int64
		mtime time.Time
	}
	var found []resident
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(d.dir, name)) // crashed writer's leftover
			continue
		}
		if !strings.HasSuffix(name, ext) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue // raced with an eviction or external cleanup
		}
		found = append(found, resident{path: filepath.Join(d.dir, name), size: info.Size(), mtime: info.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range found {
		// The key inside the file is authoritative, but reading every
		// artifact at startup defeats the point of warming; index by
		// path now and verify the embedded key on first Get.
		e := &dentry{path: r.path, size: r.size}
		d.byKey[r.path] = d.lru.PushFront(e) // placeholder key until first read
		e.key = r.path
		d.total += r.size
	}
	d.evictLocked(nil)
	d.publishLocked()
	return nil
}

// path returns the content address of a work unit: the hex SHA-256 of
// its key, inside the tier's directory.
func (d *DiskTier) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+ext)
}

// Get returns the stored artifact for wu, or ok=false on any kind of
// miss: absent file, concurrent eviction, truncation, checksum or
// schema mismatch, or a file answering a different key (all but the
// plain absence also discard the offending file). A hit refreshes the
// entry's recency in memory and its mtime on disk, so LRU order is
// meaningful to the next process warming from this directory.
func (d *DiskTier) Get(wu WorkUnit) (Artifact, bool) {
	path := d.path(wu.Key())
	data, err := os.ReadFile(path)
	if err != nil {
		mDiskMisses.Inc()
		return Artifact{}, false
	}
	key, art, err := Decode(data)
	if err != nil || key != wu.Key() {
		if err == nil {
			err = fmt.Errorf("%w: file answers key %q", ErrCorrupt, key)
		}
		d.discard(path, wu.Key(), err)
		mDiskMisses.Inc()
		return Artifact{}, false
	}
	d.touch(wu.Key(), path, int64(len(data)))
	mDiskHits.Inc()
	return art, true
}

// touch records a hit: the entry moves to the LRU front (adopting
// files written by other processes after warming) and its mtime is
// refreshed best-effort for cross-process recency.
func (d *DiskTier) touch(key, path string, size int64) {
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort; recency only
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.byKey[key]; ok {
		d.lru.MoveToFront(el)
		return
	}
	// Warming indexed this file under its path placeholder, or another
	// process wrote it after we started; re-home it under the real key.
	if el, ok := d.byKey[path]; ok {
		delete(d.byKey, path)
		el.Value.(*dentry).key = key
		d.byKey[key] = el
		d.lru.MoveToFront(el)
		return
	}
	// A concurrent Put may have evicted the file between our read and
	// taking the lock; evictions unlink under d.mu, so a stat here is
	// authoritative and keeps ghosts of deleted files out of the index.
	if _, err := os.Stat(path); err != nil {
		return
	}
	d.insertLocked(&dentry{key: key, path: path, size: size})
	d.evictLocked(nil) // adoption grows the tier like a Put does
	d.publishLocked()
}

// discard drops a corrupt, foreign, or stale-schema file so the slot
// recomputes cleanly. Schema mismatches (a *SchemaError naming the
// found and supported versions — the expected state of a cache dir
// shared across a schema bump) are counted apart from corruption, so
// operators can tell an upgrade aging out from bit rot.
func (d *DiskTier) discard(path, key string, cause error) {
	schema := errors.Is(cause, ErrSchema)
	if schema {
		mDiskSchema.Inc()
	} else {
		mDiskCorrupt.Inc()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if schema {
		d.schemaMismatch++
	} else {
		d.corrupt++
	}
	for _, k := range []string{key, path} {
		if el, ok := d.byKey[k]; ok {
			d.removeLocked(el)
			break
		}
	}
	os.Remove(path)
	d.publishLocked()
}

// Put stores the artifact for wu with an atomic temp-file + rename
// write, then enforces the byte budget. Failures are returned but safe
// to ignore: a failed cache write only costs a later recompute.
func (d *DiskTier) Put(wu WorkUnit, a Artifact) error {
	key := wu.Key()
	data := Encode(wu, a)
	path := d.path(key)
	if err := WriteFileAtomic(path, data, 0o644); err != nil {
		mDiskWriteErrs.Inc()
		return fmt.Errorf("artifact: writing %s: %w", path, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.byKey[key]; ok {
		// Overwrite of a live key (e.g. two processes raced): replace
		// the size and refresh recency.
		e := el.Value.(*dentry)
		d.total += int64(len(data)) - e.size
		e.size = int64(len(data))
		d.lru.MoveToFront(el)
	} else {
		d.insertLocked(&dentry{key: key, path: path, size: int64(len(data))})
	}
	d.evictLocked(d.byKey[key])
	d.publishLocked()
	return nil
}

// insertLocked adds a fresh entry at the LRU front.
func (d *DiskTier) insertLocked(e *dentry) {
	d.byKey[e.key] = d.lru.PushFront(e)
	d.total += e.size
}

// removeLocked unlinks an entry from the index (not the filesystem).
func (d *DiskTier) removeLocked(el *list.Element) {
	e := el.Value.(*dentry)
	d.lru.Remove(el)
	delete(d.byKey, e.key)
	d.total -= e.size
}

// evictLocked deletes least-recently-used entries until the tier fits
// its budget. keep (the entry just written, if any) survives even when
// it alone exceeds the budget — evicting the artifact the caller is
// about to rely on would turn every oversized write into thrash.
func (d *DiskTier) evictLocked(keep *list.Element) {
	if d.maxBytes <= 0 {
		return
	}
	for d.total > d.maxBytes && d.lru.Len() > 0 {
		el := d.lru.Back()
		if el == keep {
			return
		}
		e := el.Value.(*dentry)
		d.removeLocked(el)
		os.Remove(e.path)
		d.evictions++
		mDiskEvictions.Inc()
	}
}

// publishLocked refreshes the occupancy gauges.
func (d *DiskTier) publishLocked() {
	mDiskBytes.Set(d.total)
	mDiskEntries.Set(int64(d.lru.Len()))
}

// Dir returns the tier's root directory.
func (d *DiskTier) Dir() string { return d.dir }

// Len returns the number of indexed artifacts.
func (d *DiskTier) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lru.Len()
}

// Bytes returns the indexed payload size.
func (d *DiskTier) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total
}

// counters returns the tier-local eviction, corruption, and
// schema-mismatch counts.
func (d *DiskTier) counters() (evictions, corrupt, schemaMismatch uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.evictions, d.corrupt, d.schemaMismatch
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory followed by an atomic rename, so readers (and a SIGINT
// mid-write) can never observe a partially written file. The temp file
// is removed on any failure.
func WriteFileAtomic(path string, data []byte, perm fs.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Chmod(tmp, perm); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
