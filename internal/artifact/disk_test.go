package artifact

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// mustPut stores synthetic(i) and fails the test on error.
func mustPut(t *testing.T, d *DiskTier, i int) {
	t.Helper()
	if err := d.Put(unitFor(i), synthetic(i)); err != nil {
		t.Fatal(err)
	}
}

// encodedSize is the on-disk size of one synthetic artifact; unitFor
// keys are fixed-width, so every test artifact encodes to it.
func encodedSize() int64 {
	return int64(len(Encode(unitFor(0), synthetic(0))))
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(unitFor(1)); ok {
		t.Fatal("hit on an empty tier")
	}
	mustPut(t, d, 1)
	a, ok := d.Get(unitFor(1))
	if !ok {
		t.Fatal("miss after Put")
	}
	checkSynthetic(t, a, 1)
	if d.Len() != 1 || d.Bytes() != encodedSize() {
		t.Errorf("occupancy = %d entries / %d bytes, want 1 / %d", d.Len(), d.Bytes(), encodedSize())
	}
}

// TestDiskTruncatedFileRecovers simulates a torn write (possible only
// from writers bypassing WriteFileAtomic, e.g. an older binary): the
// tier must treat the file as a miss and delete it, not error.
func TestDiskTruncatedFileRecovers(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, 1)
	path := d.path(unitFor(1).Key())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(unitFor(1)); ok {
		t.Fatal("truncated artifact served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("truncated file not discarded: %v", err)
	}
	if _, corrupt, _ := d.counters(); corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", corrupt)
	}
	// The slot is reusable: a fresh Put serves again.
	mustPut(t, d, 1)
	if a, ok := d.Get(unitFor(1)); !ok {
		t.Fatal("re-put after discard missed")
	} else {
		checkSynthetic(t, a, 1)
	}
}

// TestDiskWrongSchemaRecovers plants a file from a future schema at the
// right content address: the tier must discard it and miss, so the
// caller recomputes under the current schema instead of erroring.
func TestDiskWrongSchemaRecovers(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	wu := unitFor(2)
	path := d.path(wu.Key())
	if err := WriteFileAtomic(path, encodeFrame(wu.Key(), SchemaVersion+1, synthetic(2)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(wu); ok {
		t.Fatal("foreign-schema artifact served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("foreign-schema file not discarded: %v", err)
	}
	// Schema mismatches are classified apart from corruption: an
	// upgrade aging a shared cache dir out is expected, bit rot is not.
	evic, corrupt, schema := d.counters()
	_ = evic
	if corrupt != 0 || schema != 1 {
		t.Errorf("counters corrupt=%d schema=%d, want 0 and 1", corrupt, schema)
	}
	// The slot recomputes cleanly under the current schema.
	mustPut(t, d, 2)
	if a, ok := d.Get(wu); !ok {
		t.Fatal("re-put after schema discard missed")
	} else {
		checkSynthetic(t, a, 2)
	}
}

// TestDiskKeyCollisionFileDiscarded plants a valid artifact whose
// embedded key disagrees with its content address (renamed by hand, or
// a hash collision in a hostile cache dir): the embedded key is
// authoritative, so this is corruption.
func TestDiskKeyCollisionFileDiscarded(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	other := unitFor(9)
	if err := WriteFileAtomic(d.path(unitFor(3).Key()), Encode(other, synthetic(9)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(unitFor(3)); ok {
		t.Fatal("artifact answering a different key served as a hit")
	}
	if _, corrupt, _ := d.counters(); corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", corrupt)
	}
}

func TestDiskLRUEviction(t *testing.T) {
	size := encodedSize()
	d, err := OpenDisk(t.TempDir(), 3*size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		mustPut(t, d, i)
	}
	// Refresh 1 so 2 becomes the least recently used.
	if _, ok := d.Get(unitFor(1)); !ok {
		t.Fatal("warm-up read missed")
	}
	mustPut(t, d, 4)
	if evictions, _, _ := d.counters(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if _, ok := d.Get(unitFor(2)); ok {
		t.Error("LRU victim should have been 2")
	}
	for _, want := range []int{1, 3, 4} {
		a, ok := d.Get(unitFor(want))
		if !ok {
			t.Fatalf("entry %d evicted out of LRU order", want)
		}
		checkSynthetic(t, a, want)
	}
	if d.Bytes() > d.MaxBytes() {
		t.Errorf("tier over budget: %d > %d", d.Bytes(), d.MaxBytes())
	}
}

// TestDiskOversizedWriteSurvives: a single artifact larger than the
// whole budget is kept (evicting everything else) rather than evicted
// immediately — otherwise every oversized Put would thrash.
func TestDiskOversizedWriteSurvives(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), encodedSize()/2)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, 1)
	if a, ok := d.Get(unitFor(1)); !ok {
		t.Fatal("oversized artifact evicted on write")
	} else {
		checkSynthetic(t, a, 1)
	}
	mustPut(t, d, 2)
	if d.Len() != 1 {
		t.Errorf("tier holds %d entries over a sub-artifact budget, want 1", d.Len())
	}
	if _, ok := d.Get(unitFor(2)); !ok {
		t.Fatal("newest oversized artifact missing")
	}
}

// TestDiskWarmAcrossReopen is restart recovery: a second OpenDisk on
// the same directory indexes the artifacts, preserves LRU order from
// mtimes, sweeps temp leftovers, and serves bit-identical payloads.
func TestDiskWarmAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		mustPut(t, d1, i)
	}
	// Distinct, ordered mtimes (filesystem granularity can merge fast
	// writes): 2 oldest, then 3, then 1.
	base := time.Now().Add(-time.Hour)
	for rank, i := range []int{2, 3, 1} {
		mt := base.Add(time.Duration(rank) * time.Minute)
		if err := os.Chtimes(d1.path(unitFor(i).Key()), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// A crashed writer's leftover must be swept on open.
	leftover := filepath.Join(dir, ".tmp-crashed")
	if err := os.WriteFile(leftover, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 3 || d2.Bytes() != 3*encodedSize() {
		t.Fatalf("warmed %d entries / %d bytes, want 3 / %d", d2.Len(), d2.Bytes(), 3*encodedSize())
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Error("temp leftover not swept on open")
	}
	for i := 1; i <= 3; i++ {
		a, ok := d2.Get(unitFor(i))
		if !ok {
			t.Fatalf("entry %d lost across reopen", i)
		}
		checkSynthetic(t, a, i)
	}
	// Re-impose the mtime ordering — the Gets above refreshed it, which
	// is itself the recency contract — then reopen under a 2-artifact
	// budget: the mtime-oldest entry (2) is the one evicted.
	for rank, i := range []int{2, 3, 1} {
		mt := base.Add(time.Duration(rank) * time.Minute)
		if err := os.Chtimes(d1.path(unitFor(i).Key()), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	d3, err := OpenDisk(dir, 2*encodedSize())
	if err != nil {
		t.Fatal(err)
	}
	if d3.Len() != 2 {
		t.Fatalf("budgeted warm kept %d entries, want 2", d3.Len())
	}
	if _, ok := d3.Get(unitFor(2)); ok {
		t.Error("mtime-oldest entry survived a budgeted warm")
	}
	for _, i := range []int{3, 1} {
		if _, ok := d3.Get(unitFor(i)); !ok {
			t.Errorf("recent entry %d evicted by warm", i)
		}
	}
}

// TestDiskAdoptsForeignWrites: a file another process wrote after this
// tier warmed is served and indexed on first read.
func TestDiskAdoptsForeignWrites(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDisk(dir, 0) // the "other process"
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, b, 5)
	art, ok := a.Get(unitFor(5))
	if !ok {
		t.Fatal("foreign write not visible")
	}
	checkSynthetic(t, art, 5)
	if a.Len() != 1 {
		t.Errorf("foreign file not adopted into the index: %d entries", a.Len())
	}
}

// TestDiskConcurrentReadersDuringEviction hammers a tiny tier with
// concurrent writers (forcing constant eviction) and readers; run
// under -race. The contract: every Get either hits with the correct
// bits or misses cleanly — never an error, a panic, or a torn read.
func TestDiskConcurrentReadersDuringEviction(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 2*encodedSize())
	if err != nil {
		t.Fatal(err)
	}
	const units = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d.Put(unitFor((seed+i)%units), synthetic((seed+i)%units))
			}
		}(w * 3)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := (seed + i) % units
				if a, ok := d.Get(unitFor(u)); ok {
					checkSynthetic(t, a, u)
				}
			}
		}(r)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if evictions, _, _ := d.counters(); evictions == 0 {
		t.Error("stress run never evicted; budget too generous to exercise the race")
	}
	if d.Bytes() > d.MaxBytes() {
		t.Errorf("tier settled over budget: %d > %d", d.Bytes(), d.MaxBytes())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	for _, payload := range []string{"first", "second longer payload"} {
		if err := WriteFileAtomic(path, []byte(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != payload {
			t.Errorf("read back %q, want %q", got, payload)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp file leaked: %s", e.Name())
		}
	}
	if len(ents) != 1 {
		t.Errorf("directory holds %d entries, want just the target", len(ents))
	}
	if err := WriteFileAtomic(filepath.Join(dir, "no", "such", "dir", "x"), []byte("y"), 0o644); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

func TestOpenDiskRejectsEmptyDir(t *testing.T) {
	if _, err := OpenDisk("", 0); err == nil {
		t.Error("empty directory accepted")
	}
}

func TestDiskPathIsContentAddressed(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d, 1)
	ents, err := os.ReadDir(d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("%d files, want 1", len(ents))
	}
	name := ents[0].Name()
	if !strings.HasSuffix(name, ext) || len(name) != 64+len(ext) {
		t.Errorf("artifact filename %q is not a hex SHA-256 plus %q", name, ext)
	}
	if strings.Contains(name, "|") {
		t.Errorf("raw key leaked into filename %q", name)
	}
}
