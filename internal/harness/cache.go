package harness

import (
	"container/list"
	"context"
	"sync"
)

// cache is the runner's one single-flight cache, holding both its job memo
// and its sampled checkpoints. The first requester of a key builds the value
// under its own context; concurrent requesters of the key wait for that
// build and share its answer.
//
// A build that dies with its caller's context (canceled) is withdrawn, so
// the next requester retries under a live context; so is one that panics
// through to its caller's fault boundary, which leaves no outcome to keep.
// Every other outcome, an error included, is a property of the key and is
// kept: a VM fault in a checkpoint capture is captured once, not once per
// configuration of a sweep.
//
// Completed entries are held within a byte budget, each costing size(value)
// bytes: when a build takes the total past it, the least recently requested
// completed entries are dropped, the new one included if it alone is over.
// Builds in flight are never dropped. Dropping forgets the map entry only —
// a caller already holding the value keeps it — and a later request for the
// key builds it again. Recency is a list ordered by last request, so each
// request and each eviction is O(1).
type cache[K comparable, V any] struct {
	budget int64
	size   func(V) int64

	mu    sync.Mutex
	m     map[K]*entry[K, V]
	lru   list.List // completed entries, most recently requested first
	bytes int64     // size of the completed entries
	n     cacheStats
}

type entry[K comparable, V any] struct {
	key  K
	done chan struct{} // closed when the build returns
	val  V
	err  error
	size int64
	elem *list.Element // in lru once completed; nil while in flight
}

func newCache[K comparable, V any](budget int64, size func(V) int64) *cache[K, V] {
	return &cache[K, V]{budget: budget, size: size, m: map[K]*entry[K, V]{}}
}

// cacheStats counts a cache's requests answered by an existing entry
// (Hits), builds started (Misses) and completed entries dropped. A request
// counts once, by the branch that answers it — one that waits on a build
// later withdrawn and retries counts only its retry — so for uncancelled
// requests Hits+Misses is the request count.
type cacheStats struct {
	Hits, Misses, Evictions uint64
}

func (c *cache[K, V]) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// get returns the value of k, calling build under ctx when no entry holds
// or is building it. ctx's end returns ctx.Err() without waiting further.
func (c *cache[K, V]) get(ctx context.Context, k K, build func(context.Context) (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		c.mu.Lock()
		e, ok := c.m[k]
		if !ok {
			// Until build returns, the entry reads as cancelled, so a
			// build that panics is withdrawn, never left in flight.
			e = &entry[K, V]{key: k, done: make(chan struct{}), err: context.Canceled}
			c.m[k] = e
			c.n.Misses++
			c.mu.Unlock()
			defer c.settle(e)
			e.val, e.err = build(ctx)
			return e.val, e.err
		}
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			if !canceled(e.err) {
				// Counted here, on the answer, not when the wait began:
				// a requester whose build is withdrawn retries and is
				// counted once, by whichever branch answers it.
				c.mu.Lock()
				c.n.Hits++
				c.mu.Unlock()
				return e.val, e.err
			}
			// The build was withdrawn (its caller was cancelled, or it
			// panicked); retry under our own context.
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// settle files a finished build and releases its waiters: withdrawn if it
// was cancelled, otherwise kept as the most recently requested entry,
// evicting the least recently requested ones past the budget.
func (c *cache[K, V]) settle(e *entry[K, V]) {
	c.mu.Lock()
	defer close(e.done)
	defer c.mu.Unlock()
	if canceled(e.err) {
		delete(c.m, e.key)
		return
	}
	e.size = c.size(e.val)
	e.elem = c.lru.PushFront(e)
	c.bytes += e.size
	for c.bytes > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*entry[K, V])
		delete(c.m, old.key)
		c.bytes -= old.size
		c.n.Evictions++
	}
}
