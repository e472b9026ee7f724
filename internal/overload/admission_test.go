package overload

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAdmissionImmediateAndShed(t *testing.T) {
	a := NewAdmission(AdmissionConfig{InitialLimit: 2, MinLimit: 1, MaxQueue: 1})
	ctx := context.Background()
	t1, err := a.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := a.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Third caller queues (slot 3 over limit 2, queue cap 1)...
	grantErr := make(chan error, 1)
	var t3 *Ticket
	var t3mu sync.Mutex
	go func() {
		tk, err := a.Acquire(ctx)
		t3mu.Lock()
		t3 = tk
		t3mu.Unlock()
		grantErr <- err
	}()
	waitQueued(t, a, 1)
	// ...and the fourth is shed, typed.
	if _, err := a.Acquire(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("4th acquire err = %v, want ErrShed", err)
	}
	// Releasing a slot grants the queued waiter FIFO.
	t1.Release()
	if err := <-grantErr; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	t2.Release()
	t3mu.Lock()
	t3.Release()
	t3mu.Unlock()
	s := a.Stats()
	if s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("gate not drained: %+v", s)
	}
	if s.Admitted != 3 || s.Shed != 1 {
		t.Fatalf("admitted=%d shed=%d, want 3/1", s.Admitted, s.Shed)
	}
}

func waitQueued(t *testing.T, a *Admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d: %+v", n, a.Stats())
		}
	}
}

func TestAdmissionQueueAbandon(t *testing.T) {
	a := NewAdmission(AdmissionConfig{InitialLimit: 1, MinLimit: 1, MaxQueue: 4})
	tk, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		done <- err
	}()
	waitQueued(t, a, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned wait err = %v", err)
	}
	tk.Release()
	s := a.Stats()
	if s.InFlight != 0 || s.Queued != 0 || s.Aborted != 1 {
		t.Fatalf("after abandon: %+v", s)
	}
	// The gate still admits after the abandoned wait.
	tk2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tk2.Release()
}

func TestAdmissionAIMD(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	a := NewAdmission(AdmissionConfig{
		InitialLimit: 100, MinLimit: 4, MaxLimit: 200,
		Target: 100 * time.Millisecond, Now: clock,
	})
	// Slow releases shrink the limit multiplicatively, at most once
	// per Target window.
	tk, _ := a.Acquire(context.Background())
	now = now.Add(500 * time.Millisecond) // latency 500ms > target
	tk.Release()
	if got := a.Stats().Limit; got != 90 {
		t.Fatalf("limit after one cut = %d, want 90", got)
	}
	// A second slow release inside the same window does not cut again.
	tk, _ = a.Acquire(context.Background())
	now = now.Add(50 * time.Millisecond)
	// Make the measured latency slow by moving start back: acquire
	// started at the current now, so advance past target.
	now = now.Add(200 * time.Millisecond)
	tk.Release()
	// lastCut was 750ms ago >= target, so this does cut: 90 -> 81.
	if got := a.Stats().Limit; got != 81 {
		t.Fatalf("limit after second cut = %d, want 81", got)
	}
	tk, _ = a.Acquire(context.Background())
	now = now.Add(150 * time.Millisecond)
	tk.Release() // within the same window as the last cut? 150ms >= 100ms target -> cuts again
	if got := a.Stats().Limit; got != 72 {
		t.Fatalf("limit after third cut = %d, want 72 (0.9*81=72.9)", got)
	}
	// Fast releases grow the limit additively.
	before := a.Stats().Limit
	for i := 0; i < 2000; i++ {
		tk, _ := a.Acquire(context.Background())
		tk.Release() // zero latency, on target
	}
	after := a.Stats().Limit
	if after <= before {
		t.Fatalf("limit did not grow under on-target load: %d -> %d", before, after)
	}
	if after > 200 {
		t.Fatalf("limit exceeded MaxLimit: %d", after)
	}
}

func TestAdmissionFloorAndStatic(t *testing.T) {
	now := time.Unix(0, 0)
	a := NewAdmission(AdmissionConfig{
		InitialLimit: 5, MinLimit: 4, MaxLimit: 10,
		Target: time.Millisecond, Now: func() time.Time { return now },
	})
	for i := 0; i < 50; i++ {
		tk, _ := a.Acquire(context.Background())
		now = now.Add(time.Hour)
		tk.Release()
	}
	if got := a.Stats().Limit; got != 4 {
		t.Fatalf("limit fell past MinLimit: %d", got)
	}
	// Target 0 = static limit: latency never moves it.
	st := NewAdmission(AdmissionConfig{InitialLimit: 7, Now: func() time.Time { return now }})
	tk, _ := st.Acquire(context.Background())
	now = now.Add(time.Hour)
	tk.Release()
	if got := st.Stats().Limit; got != 7 {
		t.Fatalf("static limit moved: %d", got)
	}
}
