package distrib

import (
	"sync"
	"testing"
	"time"
)

// manualClock is a trivial settable clock for breaker unit tests (the
// chaostest package has the full fake; importing it here would cycle).
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (m *manualClock) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

func (m *manualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	return ch // never fires; breaker tests only use Now
}

func (m *manualClock) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	m.mu.Unlock()
}

func TestBreakerTripAndCooldownRecovery(t *testing.T) {
	clk := &manualClock{now: time.Unix(0, 0)}
	br := newBreaker(clk, 3, time.Second)
	for i := 0; i < 2; i++ {
		if !br.allow() {
			t.Fatalf("closed breaker denied launch %d", i)
		}
		br.onFailure()
	}
	if got := br.state(); got != BreakerClosed {
		t.Fatalf("state after 2 failures = %s, want closed", got)
	}
	br.onFailure() // third consecutive failure trips
	if got := br.state(); got != BreakerOpen {
		t.Fatalf("state after 3 failures = %s, want open", got)
	}
	if br.tripCount() != 1 {
		t.Fatalf("trips = %d, want 1", br.tripCount())
	}
	if br.allow() {
		t.Fatal("open breaker admitted a launch before cooldown")
	}
	// Cooldown elapsing arms exactly one probation trial.
	clk.Advance(time.Second)
	if !br.allow() {
		t.Fatal("cooldown elapsed but trial denied")
	}
	if got := br.state(); got != BreakerHalfOpen {
		t.Fatalf("state during trial = %s, want half_open", got)
	}
	if br.allow() {
		t.Fatal("second trial admitted while first in flight")
	}
	// Trial failure re-opens and restarts the cooldown.
	br.onFailure()
	if got := br.state(); got != BreakerOpen {
		t.Fatalf("state after failed trial = %s, want open", got)
	}
	if br.allow() {
		t.Fatal("re-opened breaker admitted without a new cooldown")
	}
	clk.Advance(time.Second)
	if !br.allow() {
		t.Fatal("second cooldown elapsed but trial denied")
	}
	br.onSuccess()
	if got := br.state(); got != BreakerClosed {
		t.Fatalf("state after successful trial = %s, want closed", got)
	}
	if !br.allow() {
		t.Fatal("closed breaker denied launch after recovery")
	}
}

func TestBreakerProbeArmsProbation(t *testing.T) {
	clk := &manualClock{now: time.Unix(0, 0)}
	br := newBreaker(clk, 1, time.Hour)
	br.onFailure()
	if got := br.state(); got != BreakerOpen {
		t.Fatalf("state = %s, want open", got)
	}
	if br.allow() {
		t.Fatal("open breaker admitted with cooldown pending")
	}
	// A successful probe short-circuits the cooldown.
	br.onProbeSuccess()
	if got := br.state(); got != BreakerHalfOpen {
		t.Fatalf("state after probe = %s, want half_open", got)
	}
	if !br.allow() {
		t.Fatal("probe-armed trial denied")
	}
	// A cancelled trial releases the slot without judging the backend.
	br.onCanceled()
	if got := br.state(); got != BreakerHalfOpen {
		t.Fatalf("state after cancelled trial = %s, want half_open", got)
	}
	if !br.allow() {
		t.Fatal("trial slot not released after cancellation")
	}
	br.onSuccess()
	if got := br.state(); got != BreakerClosed {
		t.Fatalf("state = %s, want closed", got)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	br := newBreaker(&manualClock{}, 3, time.Second)
	br.onFailure()
	br.onFailure()
	br.onSuccess() // streak resets
	br.onFailure()
	br.onFailure()
	if got := br.state(); got != BreakerClosed {
		t.Fatalf("flapping replica tripped breaker: %s", got)
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var br *breaker
	if !br.allow() {
		t.Fatal("nil breaker denied launch")
	}
	br.onSuccess()
	br.onFailure()
	br.onCanceled()
	br.onProbeSuccess()
	if got := br.state(); got != BreakerClosed {
		t.Fatalf("nil breaker state = %s", got)
	}
	if br.tripCount() != 0 {
		t.Fatal("nil breaker has trips")
	}
	if newBreaker(nil, 0, time.Second) != nil {
		t.Fatal("threshold 0 should disable the breaker")
	}
}
