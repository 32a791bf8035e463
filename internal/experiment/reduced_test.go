package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ucp/internal/cache"
	"ucp/internal/cache/cachetest"
	"ucp/internal/energy"
	"ucp/internal/faults"
	"ucp/internal/interrupt"
	"ucp/internal/malardalen"
	"ucp/internal/obs"
	"ucp/internal/pool"
)

// pairOptions are the options of the reduced-pair tests: one simulated run
// and a small validation budget keep the matrix quick under -race.
var pairOptions = Options{Runs: 1, ValidationBudget: 10}

// TestReducedPairDifferential checks that RunCell, which runs a
// single-level cell's half and quarter runs side by side, returns exactly
// the cell of the serial composition: the main run (RunCell without
// reduced runs) followed by reducedRun at half, then at quarter capacity.
// L2 cells run their reduced runs in order and are held to the same
// reference.
func TestReducedPairDifferential(t *testing.T) {
	ctx := context.Background()
	for _, prog := range []string{"crc", "fdct", "adpcm"} {
		b, ok := malardalen.ByName(prog)
		if !ok {
			t.Fatalf("%s benchmark missing", prog)
		}
		for _, pol := range cachetest.Policies(t) {
			for _, ci := range []int{2, 14, 32} { // k3, k15, k33
				for _, l2 := range []cache.Config{{}, testL2()} {
					if l2 != (cache.Config{}) {
						l2.Policy = pol
					}
					cfg := cache.Table2()[ci]
					cfg.Policy = pol
					h := cache.Hierarchy{L1: cfg, L2: l2}
					o := pairOptions
					o.Policy, o.L2 = pol, l2
					var want [2]reduced
					var wantOK [2]bool
					for i, factor := range []int{2, 4} {
						var err error
						if want[i], wantOK[i], err = reducedRun(ctx, b, h, factor, energy.Tech45, o); err != nil {
							t.Fatal(err)
						}
					}
					for _, explain := range []bool{false, true} {
						name := fmt.Sprintf("%s/%v/%s/l2=%v/explain=%v", prog, pol, cache.ConfigID(ci), l2 != (cache.Config{}), explain)
						o.Explain = explain
						got, err := RunCell(ctx, b, ci, energy.Tech45, o)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						main := o
						main.SkipReduced = true
						ref, err := RunCell(ctx, b, ci, energy.Tech45, main)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						ref.HasHalf, ref.TauHalf, ref.ACETHalf, ref.EnergyHalf = wantOK[0], want[0].tau, want[0].acet, want[0].energy
						ref.HasQuarter, ref.TauQuarter, ref.ACETQuarter, ref.EnergyQuarter = wantOK[1], want[1].tau, want[1].acet, want[1].energy
						if !reflect.DeepEqual(got, ref) {
							t.Errorf("%s: RunCell\n%+v\nserial reference\n%+v", name, got, ref)
						}
					}
				}
			}
		}
	}
}

// mainRunRounds arms a no-op rule at absint.round, runs the main run of
// the crc k14 single-level cell alone and returns how often it reached the
// hook. The main run runs before the reduced pair and alone, so the count
// is the same in every RunCell of that cell: the next hit is a reduced
// run's.
func mainRunRounds(t *testing.T) (malardalen.Benchmark, int64) {
	t.Helper()
	b, _ := malardalen.ByName("crc")
	if err := faults.Arm("absint.round:*=delay:0s"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
	o := pairOptions
	o.SkipReduced = true
	if _, err := RunCell(context.Background(), b, 13, energy.Tech45, o); err != nil {
		t.Fatal(err)
	}
	n := faults.Count("absint.round")
	if n == 0 {
		t.Fatal("the main run never reached absint.round")
	}
	return b, n
}

// armAfterMain lets the main run's n rounds through and applies action to
// every later one.
func armAfterMain(t *testing.T, n int64, action string) {
	t.Helper()
	if err := faults.Arm(fmt.Sprintf("absint.round:*=delay:0s@%d,absint.round:*=%s", n, action)); err != nil {
		t.Fatal(err)
	}
}

// TestReducedPairPanic checks that a panic in a reduced run, which runs on
// a goroutine of its own, comes back from RunCell as a *pool.PanicError
// instead of crashing the process.
func TestReducedPairPanic(t *testing.T) {
	b, n := mainRunRounds(t)
	armAfterMain(t, n, "panic@1")
	_, err := RunCell(context.Background(), b, 13, energy.Tech45, pairOptions)
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *pool.PanicError", err)
	}
	if got := faults.Count("absint.round"); got != n+1 {
		t.Fatalf("absint.round fired %d times, want the main run's %d and one panic", got, n)
	}
}

// TestReducedPairHalfErrorWins checks that when both reduced runs fail,
// RunCell returns the half run's error, as the serial order did.
func TestReducedPairHalfErrorWins(t *testing.T) {
	b, n := mainRunRounds(t)
	armAfterMain(t, n, "err")
	_, err := RunCell(context.Background(), b, 13, energy.Tech45, pairOptions)
	if err == nil || !strings.Contains(err.Error(), "1/2 L1 capacity") {
		t.Fatalf("err = %v, want the half run's", err)
	}
	if got := faults.Count("absint.round"); got != n+2 {
		t.Fatalf("absint.round fired %d times, want the main run's %d and one failure per reduced run", got, n)
	}
}

// TestReducedPairCancel cancels the context while both reduced runs are
// blocked in the analysis and checks that RunCell returns the typed
// interrupt only after both runs have returned: each run's optimizer span
// has ended by then.
func TestReducedPairCancel(t *testing.T) {
	b, n := mainRunRounds(t)
	armAfterMain(t, n, "hang")
	rec := obs.NewRecorder("test")
	var optimizes atomic.Int64
	rec.OnEnd = func(name string, _ time.Duration, _ []obs.Attr) {
		if name == "core.optimize" {
			optimizes.Add(1)
		}
	}
	defer rec.Release()
	ctx, cancel := context.WithCancel(rec.Install(context.Background()))
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunCell(ctx, b, 13, energy.Tech45, pairOptions)
		done <- err
	}()
	for faults.Count("absint.round") < n+2 {
		select {
		case err := <-done:
			t.Fatalf("RunCell returned before both reduced runs blocked: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	err := <-done
	if !errors.Is(err, interrupt.ErrCanceled) {
		t.Fatalf("err = %v, want the typed interrupt", err)
	}
	if got := optimizes.Load(); got != 3 {
		t.Fatalf("%d optimizer runs had ended when RunCell returned, want 3 (main, half, quarter)", got)
	}
}
