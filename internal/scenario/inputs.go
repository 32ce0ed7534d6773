package scenario

import (
	"fmt"
	"strings"
	"sync"

	"obm/internal/core"
)

// inputs memoizes the deterministic inputs experiments derive from a
// request — problems, lower bounds, random-mapping baselines — under
// content keys, building each once under singleflight. It follows the
// artifact memory tier's rules: a failed or panicking build is
// forgotten, so a later request builds afresh; values are handed out
// as copies where they are mutable; and it belongs to one Cache, so a
// fresh shared cache starts with no inputs. It never touches the
// artifact store's accounting or the progress sink.
type inputs struct {
	mu sync.Mutex
	m  map[string]*input
}

// input is one memo entry: the build, run at most once.
type input struct{ get func() (any, error) }

// get returns the value built under key, running build if no build
// for key has succeeded or is in flight.
func (in *inputs) get(key string, build func() (any, error)) (any, error) {
	in.mu.Lock()
	e := in.m[key]
	if e == nil {
		e = &input{get: sync.OnceValues(build)}
		in.m[key] = e
	}
	in.mu.Unlock()
	built := false
	defer func() {
		if built {
			return
		}
		// An error or a panic (which sync.OnceValues re-raises on every
		// call): drop the entry unless a later build already replaced it.
		in.mu.Lock()
		if in.m[key] == e {
			delete(in.m, key)
		}
		in.mu.Unlock()
	}()
	v, err := e.get()
	built = err == nil
	return v, err
}

// len returns the number of entries built or in flight.
func (in *inputs) len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.m)
}

// Problem returns the problem build makes, built once per cache under
// key. The key must name the problem's content: every caller that
// passes it must build the same problem. Problems are immutable, so
// all callers share one.
func (c *Cache) Problem(key string, build func() (*core.Problem, error)) (*core.Problem, error) {
	v, err := c.inputs.get("problem/"+key, func() (any, error) { return build() })
	if err != nil {
		return nil, err
	}
	return v.(*core.Problem), nil
}

// LowerBound returns p.LowerBound(), solved once per cache for each
// problem fingerprint.
func (c *Cache) LowerBound(p *core.Problem) (float64, error) {
	v, err := c.inputs.get("bound/"+p.Fingerprint(), func() (any, error) { return p.LowerBound() })
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// RandomAverages returns core.RandomAverages(ps, seed, draws), drawn
// once per cache for each (problem fingerprints, seed, draws). The
// returned slice is the caller's own copy.
func (c *Cache) RandomAverages(ps []*core.Problem, seed uint64, draws int) ([]core.RandomAverage, error) {
	fps := make([]string, len(ps))
	for i, p := range ps {
		fps[i] = p.Fingerprint()
	}
	key := fmt.Sprintf("random/%s/%d/%d", strings.Join(fps, ","), seed, draws)
	v, err := c.inputs.get(key, func() (any, error) { return core.RandomAverages(ps, seed, draws) })
	if err != nil {
		return nil, err
	}
	return append([]core.RandomAverage(nil), v.([]core.RandomAverage)...), nil
}

// Inputs returns the number of memoized inputs (problems, bounds and
// random baselines) built or in flight. Failed builds are not counted.
func (c *Cache) Inputs() int { return c.inputs.len() }
