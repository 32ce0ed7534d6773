package scenario

import (
	"context"
	"fmt"
	"strings"

	"obm/internal/core"
)

// get returns the input built under key. The input memo holds the
// deterministic inputs experiments derive from a request — problems,
// lower bounds, random-mapping baselines — under content keys, in a
// Flight of its own, so it follows the artifact memory tier's rules: a
// failed or panicking build is forgotten and a later request builds
// afresh, and a waiter on a panicking build gets an error naming the
// panic. Values are handed out as copies where they are mutable, and
// the memo belongs to one Cache, so a fresh shared cache starts with
// no inputs. It never touches the artifact store's accounting or the
// progress sink. The memo's callers take no context, so a waiter waits
// for the build under context.Background().
func (c *Cache) get(key string, build func() (any, error)) (any, error) {
	return c.inputs.Do(context.Background(), key, build)
}

// Problem returns the problem build makes, built once per cache under
// key. The key must name the problem's content: every caller that
// passes it must build the same problem. Problems are immutable, so
// all callers share one.
func (c *Cache) Problem(key string, build func() (*core.Problem, error)) (*core.Problem, error) {
	v, err := c.get("problem/"+key, func() (any, error) { return build() })
	if err != nil {
		return nil, err
	}
	return v.(*core.Problem), nil
}

// LowerBound returns p.LowerBound(), solved once per cache for each
// problem fingerprint.
func (c *Cache) LowerBound(p *core.Problem) (float64, error) {
	v, err := c.get("bound/"+p.Fingerprint(), func() (any, error) { return p.LowerBound() })
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
	v, err := c.get(key, func() (any, error) { return core.RandomAverages(ps, seed, draws) })
	if err != nil {
		return nil, err
	}
	return append([]core.RandomAverage(nil), v.([]core.RandomAverage)...), nil
}

// Inputs returns the number of memoized inputs (problems, bounds and
// random baselines) built or in flight. Failed builds are not counted.
func (c *Cache) Inputs() int { return c.inputs.Len() }
