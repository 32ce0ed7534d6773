package service

import (
	"testing"

	"obm/internal/engine"
)

func TestJournalSinceSequenced(t *testing.T) {
	j := &Journal{}
	for i := 1; i <= 5; i++ {
		j.Event(engine.Progress{Stage: "s"})
	}
	all, cur := j.Since(0)
	if len(all) != 5 || cur != 5 {
		t.Fatalf("Since(0) = %d events, cursor %d; want 5, 5", len(all), cur)
	}
	rest, cur := j.Since(3)
	if len(rest) != 2 || rest[0].Seq != 4 || cur != 5 {
		t.Fatalf("Since(3) = %+v, cursor %d; want seqs 4..5, cursor 5", rest, cur)
	}
	none, cur := j.Since(5)
	if len(none) != 0 || cur != 5 {
		t.Fatalf("Since(5) = %d events, cursor %d; want 0, 5", len(none), cur)
	}
}

// TestJournalUnsequencedSink: producers leave Seq 0, and the journal
// stamps every event, so cursor polling sees each one exactly once, in
// arrival order — an index-by-cursor journal that trusted the
// producer's Seq replayed the whole buffer forever (its cursor never
// advanced past 0).
func TestJournalUnsequencedSink(t *testing.T) {
	j := &Journal{}
	stages := []string{"a", "b", "c", "d"}
	for _, s := range stages {
		j.Event(engine.Progress{Stage: s}) // Seq 0, as every producer leaves it
	}
	var got []string
	cursor := uint64(0)
	for {
		evs, next := j.Since(cursor)
		if len(evs) == 0 {
			break
		}
		for _, e := range evs {
			got = append(got, e.Stage)
		}
		if next <= cursor {
			t.Fatalf("cursor did not advance: %d -> %d", cursor, next)
		}
		cursor = next
	}
	if len(got) != len(stages) {
		t.Fatalf("polled %d events %v, want %d exactly once", len(got), got, len(stages))
	}
	for i, s := range stages {
		if got[i] != s {
			t.Fatalf("event %d = %q, want %q (order must be preserved)", i, got[i], s)
		}
	}
}

// TestJournalOutOfOrderSeq: duplicate and regressing producer Seq
// values are overwritten; the journal's own numbering runs 1..n.
func TestJournalOutOfOrderSeq(t *testing.T) {
	j := &Journal{}
	for _, seq := range []uint64{1, 1, 5, 3, 6} {
		j.Event(engine.Progress{Seq: seq})
	}
	evs, cur := j.Since(0)
	if len(evs) != 5 || cur != 5 {
		t.Fatalf("Since(0) = %d events, cursor %d; want 5, 5", len(evs), cur)
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d Seq %d, want %d", i, e.Seq, i+1)
		}
	}
	tail, _ := j.Since(4)
	if len(tail) != 1 || tail[0].Seq != 5 {
		t.Fatalf("Since(4) = %+v, want seq 5", tail)
	}
}

// TestJournalSeqGaps: gaps in the producer's Seq (events filtered
// upstream, say) never reach the cursor space, and a cursor past the
// end returns nothing.
func TestJournalSeqGaps(t *testing.T) {
	j := &Journal{}
	for _, seq := range []uint64{10, 20, 30} {
		j.Event(engine.Progress{Seq: seq})
	}
	evs, cur := j.Since(1)
	if len(evs) != 2 || evs[0].Seq != 2 || evs[1].Seq != 3 || cur != 3 {
		t.Fatalf("Since(1) = %+v cursor %d, want seqs 2,3 cursor 3", evs, cur)
	}
	evs, cur = j.Since(99)
	if len(evs) != 0 || cur != 99 {
		t.Fatalf("Since(99) = %+v cursor %d, want empty, 99", evs, cur)
	}
}
