package overload

import "testing"

func TestRetryBudgetBoundsAmplification(t *testing.T) {
	rb := NewRetryBudget(0.1, 2)
	// The burst is spendable immediately...
	if !rb.Take() || !rb.Take() {
		t.Fatal("initial burst not grantable")
	}
	// ...then an empty bucket denies, typed in the stats.
	if rb.Take() {
		t.Fatal("empty budget granted a retry")
	}
	// Ten primaries earn exactly one retry token.
	for i := 0; i < 10; i++ {
		rb.Earn()
	}
	if !rb.Take() {
		t.Fatal("earned token not grantable")
	}
	if rb.Take() {
		t.Fatal("budget granted beyond earnings")
	}
	s := rb.Stats()
	if s.Taken != 3 || s.Denied != 2 {
		t.Fatalf("taken=%d denied=%d, want 3/2", s.Taken, s.Denied)
	}
	// Earnings cap at the burst.
	for i := 0; i < 1000; i++ {
		rb.Earn()
	}
	if got := rb.Stats().Tokens; got != 2 {
		t.Fatalf("tokens = %v, want capped at 2", got)
	}
}

func TestRetryBudgetUnlimitedAndNil(t *testing.T) {
	rb := NewRetryBudget(0, 64)
	for i := 0; i < 100; i++ {
		if !rb.Take() {
			t.Fatal("unlimited budget denied")
		}
	}
	if s := rb.Stats(); !s.Unlimited || s.Taken != 100 || s.Denied != 0 {
		t.Fatalf("unlimited stats: %+v", s)
	}
	var nilRB *RetryBudget
	nilRB.Earn()
	if !nilRB.Take() {
		t.Fatal("nil budget denied")
	}
	if !nilRB.Stats().Unlimited {
		t.Fatal("nil budget stats not marked unlimited")
	}
}
