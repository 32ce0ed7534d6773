package service

import (
	"sync"

	"obm/internal/engine"
)

// Journal buffers one job's progress events for cursor-based polling.
// It is the Sink a Manager installs per job, and the only place an
// event's Seq is stamped: Event numbers each event len+1 under the
// journal's lock, so a job's events carry Seq 1, 2, 3, … with no gaps
// in arrival order, whatever Seq the producer left on them. "Everything
// after cursor n" is then the slice from index n, and a consumer that
// keeps the returned cursor sees every event exactly once, however
// often it polls.
//
// The buffer is bounded only by the job's lifetime: upstream Reporter
// throttling caps the event rate (~10/s per concurrent stage), jobs are
// dropped whole at retention expiry, and consumers resume from any
// cursor, so dropping events here would buy little and break the
// no-loss contract.
type Journal struct {
	mu     sync.Mutex
	events []engine.Progress
}

// Event implements engine.Sink, stamping p with the next sequence
// number.
func (j *Journal) Event(p engine.Progress) {
	j.mu.Lock()
	p.Seq = uint64(len(j.events)) + 1
	j.events = append(j.events, p)
	j.mu.Unlock()
}

// Since returns a copy of every event with Seq > cursor, plus the next
// cursor to poll from (the Seq of the last returned event, or cursor
// itself when nothing new arrived). Cursor 0 returns the full journal.
func (j *Journal) Since(cursor uint64) ([]engine.Progress, uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor >= uint64(len(j.events)) {
		return nil, cursor
	}
	return append([]engine.Progress(nil), j.events[cursor:]...), uint64(len(j.events))
}

// Len returns the number of buffered events.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}
