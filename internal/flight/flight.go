// Package flight coalesces concurrent identical work: when N callers ask
// for the same key at once, one execution runs and all N wait on it — the
// singleflight pattern, specialized for the analysis service's
// thundering-herd problem (a sweep fan-out or a retry storm issuing the
// same content-addressed analysis many times within one pipeline latency).
//
// The crucial difference from a bare sync/singleflight: the execution does
// NOT run on any single waiter's context. It runs on a context minted by
// the group's Base factory (the server's lifetime plus its own timeout),
// so a waiter that gives up — client disconnect, per-request deadline —
// detaches without cancelling the flight the other waiters are riding.
// Only when the last waiter detaches is the execution cancelled: nobody
// wants the answer anymore, so finishing it would waste a worker.
package flight

import (
	"context"
	"sync"
)

// Group deduplicates executions by key. The zero value is not usable;
// construct with New.
type Group[V any] struct {
	// base mints the context an execution runs on. It must be independent
	// of any caller's request context.
	base func() (context.Context, context.CancelFunc)

	mu    sync.Mutex
	calls map[string]*call[V]
}

// call is one in-flight execution and its waiters.
type call[V any] struct {
	done    chan struct{} // closed when val/err are final
	val     V
	err     error
	waiters int                // callers currently waiting; guarded by Group.mu
	cancel  context.CancelFunc // cancels the execution context
}

// New returns a Group whose executions run on contexts minted by base.
// A nil base means context.Background() — executions then outlive every
// caller until they finish on their own.
func New[V any](base func() (context.Context, context.CancelFunc)) *Group[V] {
	if base == nil {
		base = func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}
	}
	return &Group[V]{base: base, calls: map[string]*call[V]{}}
}

// Do returns the result of fn for key, executing fn exactly once however
// many callers ask concurrently. The first caller becomes the leader: fn
// runs in its own goroutine on a Base-minted context. Later callers join
// as waiters; joined reports that this caller shared a flight another
// caller started.
//
// ctx governs only this caller's wait. When it ends, the caller detaches
// with ctx's cause while the flight keeps running for the remaining
// waiters; when the last waiter detaches, the flight's context is
// cancelled and fn unwinds cooperatively. fn must honor its context and
// must not panic (wrap with pool.Recover or equivalent when it might).
func (g *Group[V]) Do(ctx context.Context, key string, fn func(ctx context.Context) (V, error)) (v V, joined bool, err error) {
	g.mu.Lock()
	c, ok := g.calls[key]
	if ok {
		c.waiters++
		g.mu.Unlock()
		return g.wait(ctx, key, c, true)
	}
	execCtx, cancel := g.base()
	c = &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.calls[key] = c
	g.mu.Unlock()

	go func() {
		val, ferr := fn(execCtx)
		g.mu.Lock()
		// Remove the call before publishing: a caller arriving after the
		// flight completed must start a fresh one (the result may have
		// been cache-published by fn, but that is the caller's concern).
		// A flight abandoned by its last waiter was already removed, and
		// the key may now map to a fresh flight that is not ours to drop.
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		c.val, c.err = val, ferr
		close(c.done)
		cancel()
	}()
	return g.wait(ctx, key, c, false)
}

// wait blocks until the flight completes or the caller's ctx ends,
// detaching the caller in the latter case.
func (g *Group[V]) wait(ctx context.Context, key string, c *call[V], joined bool) (V, bool, error) {
	select {
	case <-c.done:
		return c.val, joined, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		if c.waiters == 0 {
			// Last interested caller is gone: stop the execution and
			// unregister it now, so that a caller arriving while fn is
			// still unwinding starts a fresh flight instead of joining one
			// that can only fail with the cancellation. The key may
			// already map to a fresh flight if this one completed meanwhile.
			c.cancel()
			if g.calls[key] == c {
				delete(g.calls, key)
			}
		}
		g.mu.Unlock()
		var zero V
		return zero, joined, context.Cause(ctx)
	}
}

// InFlight reports how many executions a caller can currently join (for
// tests and introspection). An execution cancelled by its last waiter
// leaves the count at once, even while fn is still unwinding.
func (g *Group[V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
