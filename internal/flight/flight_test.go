package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoExecutesOnceForConcurrentCallers(t *testing.T) {
	g := New[int](nil)
	var execs atomic.Int64
	release := make(chan struct{})

	const callers = 16
	var wg sync.WaitGroup
	vals := make([]int, callers)
	joins := make([]bool, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], joins[i], errs[i] = g.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
				execs.Add(1)
				<-release
				return 42, nil
			})
		}(i)
	}
	// Let every caller reach the flight before releasing it.
	for g.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want 1", n)
	}
	leaders := 0
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if vals[i] != 42 {
			t.Fatalf("caller %d got %d, want 42", i, vals[i])
		}
		if !joins[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d callers report leading the flight, want 1", leaders)
	}
	if g.InFlight() != 0 {
		t.Fatal("flight still registered after completion")
	}
}

// TestWaiterCancelDoesNotCancelFlight: the acceptance property from the
// issue — canceling one waiter must not cancel the flight.
func TestWaiterCancelDoesNotCancelFlight(t *testing.T) {
	g := New[string](nil)
	started := make(chan struct{})
	release := make(chan struct{})
	var flightCanceled atomic.Bool

	fn := func(ctx context.Context) (string, error) {
		close(started)
		select {
		case <-release:
			return "done", nil
		case <-ctx.Done():
			flightCanceled.Store(true)
			return "", ctx.Err()
		}
	}

	leaderRes := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", fn)
		leaderRes <- err
	}()
	<-started

	// Second caller joins, then gives up.
	wctx, wcancel := context.WithCancel(context.Background())
	waiterRes := make(chan error, 1)
	go func() {
		_, joined, err := g.Do(wctx, "k", fn)
		if !joined {
			t.Error("second caller should have joined the flight")
		}
		waiterRes <- err
	}()
	time.Sleep(10 * time.Millisecond)
	wcancel()
	if err := <-waiterRes; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}

	close(release)
	if err := <-leaderRes; err != nil {
		t.Fatalf("leader got %v after a sibling waiter canceled, want nil", err)
	}
	if flightCanceled.Load() {
		t.Fatal("flight context was canceled by a departing waiter")
	}
}

// TestLastWaiterCancelStopsFlight: when nobody is waiting anymore, the
// execution context is canceled so the worker is freed.
func TestLastWaiterCancelStopsFlight(t *testing.T) {
	g := New[string](nil)
	started := make(chan struct{})
	stopped := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) (string, error) {
			close(started)
			<-fctx.Done()
			close(stopped)
			return "", fctx.Err()
		})
		res <- err
	}()
	<-started
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("execution context was not canceled after the last waiter left")
	}
}

// TestCallerAfterAbandonedFlightStartsFresh: once the last waiter has
// detached, a caller arriving while the cancelled execution is still
// unwinding must start its own flight, not join one that can only fail
// with the cancellation.
func TestCallerAfterAbandonedFlightStartsFresh(t *testing.T) {
	g := New[string](nil)
	started := make(chan struct{})
	unwind := make(chan struct{})
	defer close(unwind)

	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) (string, error) {
			close(started)
			<-fctx.Done()
			<-unwind // held open: the cancelled execution is still unwinding
			return "", fctx.Err()
		})
		leader <- err
	}()
	<-started
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}

	type outcome struct {
		v      string
		joined bool
		err    error
	}
	second := make(chan outcome, 1)
	go func() {
		v, joined, err := g.Do(context.Background(), "k", func(context.Context) (string, error) {
			return "fresh", nil
		})
		second <- outcome{v, joined, err}
	}()
	select {
	case o := <-second:
		if o.joined || o.err != nil || o.v != "fresh" {
			t.Fatalf("second caller: v=%q joined=%v err=%v, want a fresh flight returning \"fresh\"", o.v, o.joined, o.err)
		}
	case <-time.After(5 * time.Second):
		// Only reached when the second caller joined the abandoned flight,
		// which cannot finish until unwind is closed.
		t.Fatal("second caller joined the abandoned flight")
	}
}

// TestSequentialCallsReexecute: flights do not memoize — a caller arriving
// after completion starts a new execution (memoization is the result
// cache's job).
func TestSequentialCallsReexecute(t *testing.T) {
	g := New[int](nil)
	var execs atomic.Int64
	for i := 0; i < 3; i++ {
		v, joined, err := g.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
			return int(execs.Add(1)), nil
		})
		if err != nil || joined || v != i+1 {
			t.Fatalf("call %d: v=%d joined=%v err=%v", i, v, joined, err)
		}
	}
}

// TestErrorsAreShared: every waiter of a failing flight sees the same
// error.
func TestErrorsAreShared(t *testing.T) {
	g := New[int](nil)
	boom := errors.New("boom")
	release := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = g.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
				<-release
				return 0, boom
			})
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: %v, want boom", i, err)
		}
	}
}

// TestBaseContextBoundsExecution: the group's Base factory, not any
// waiter, decides the execution's deadline.
func TestBaseContextBoundsExecution(t *testing.T) {
	g := New[int](func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 20*time.Millisecond)
	})
	_, _, err := g.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline from the base context", err)
	}
}

// TestDistinctKeysRunConcurrently: different keys never wait on each
// other.
func TestDistinctKeysRunConcurrently(t *testing.T) {
	g := New[int](nil)
	var running atomic.Int64
	peak := make(chan int64, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Do(context.Background(), string(rune('a'+i)), func(ctx context.Context) (int, error) {
				peak <- running.Add(1)
				time.Sleep(20 * time.Millisecond)
				running.Add(-1)
				return 0, nil
			})
		}(i)
	}
	wg.Wait()
	max := int64(0)
	close(peak)
	for v := range peak {
		if v > max {
			max = v
		}
	}
	if max != 2 {
		t.Fatalf("peak concurrent flights = %d, want 2", max)
	}
}
