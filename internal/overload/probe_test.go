package overload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// verdicts records what a Prober hands back, one line per verdict.
type verdicts struct {
	mu  sync.Mutex
	got []string
}

func (v *verdicts) add(s string) {
	v.mu.Lock()
	v.got = append(v.got, s)
	v.mu.Unlock()
}

// take returns the verdicts so far and forgets them.
func (v *verdicts) take() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := fmt.Sprint(v.got)
	v.got = nil
	return s
}

var errDown = errors.New("down")

// record is a Verdict that logs "up t" or "down t fails err" into v.
func (v *verdicts) record(t string, err error, fails int) {
	if err == nil {
		v.add("up " + t)
		return
	}
	v.add(fmt.Sprintf("down %s %d %v", t, fails, err))
}

// scriptedConfig probes targets, failing each one healthy does not
// mark true, and records every verdict in v.
func scriptedConfig(targets []string, healthy map[string]bool, mu *sync.Mutex, v *verdicts) ProbeConfig[string] {
	return ProbeConfig[string]{
		Targets: func() []string { return targets },
		Check: func(_ context.Context, t string) error {
			mu.Lock()
			defer mu.Unlock()
			if healthy[t] {
				return nil
			}
			return errDown
		},
		Verdict: v.record,
	}
}

// TestProberVerdicts drives passes through ProbeNow: a failure is a
// verdict only from the Threshold-th consecutive one on, every success
// is one, and a success resets the count.
func TestProberVerdicts(t *testing.T) {
	cases := []struct {
		name      string
		threshold int
		script    []bool   // target "a" healthy on each pass
		want      []string // verdicts after each pass
	}{
		{
			name:      "threshold 3, reset by one success",
			threshold: 3,
			script:    []bool{false, false, false, false, true, false, false, false},
			want:      []string{"[]", "[]", "[down a 3 down]", "[down a 4 down]", "[up a]", "[]", "[]", "[down a 3 down]"},
		},
		{
			name:      "threshold 1: every failure is a verdict",
			threshold: 1,
			script:    []bool{true, false, false, true},
			want:      []string{"[up a]", "[down a 1 down]", "[down a 2 down]", "[up a]"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			healthy := map[string]bool{}
			v := &verdicts{}
			cfg := scriptedConfig([]string{"a"}, healthy, &mu, v)
			cfg.Threshold = tc.threshold
			p := NewProber(cfg) // Interval 0: no loop, ProbeNow only
			defer p.Close()
			for i, ok := range tc.script {
				mu.Lock()
				healthy["a"] = ok
				mu.Unlock()
				p.ProbeNow(context.Background())
				if got := v.take(); got != tc.want[i] {
					t.Fatalf("pass %d: verdicts %s, want %s", i+1, got, tc.want[i])
				}
			}
		})
	}
}

// TestProberDropsVanishedTargets: a target that leaves the list loses
// its count, so it starts from zero if it comes back.
func TestProberDropsVanishedTargets(t *testing.T) {
	var mu sync.Mutex
	v := &verdicts{}
	targets := []string{"a"}
	cfg := scriptedConfig(nil, map[string]bool{}, &mu, v)
	cfg.Targets = func() []string {
		mu.Lock()
		defer mu.Unlock()
		return targets
	}
	cfg.Threshold = 2
	p := NewProber(cfg)
	defer p.Close()
	p.ProbeNow(context.Background()) // a: 1 failure
	mu.Lock()
	targets = nil
	mu.Unlock()
	p.ProbeNow(context.Background())
	mu.Lock()
	targets = []string{"a"}
	mu.Unlock()
	p.ProbeNow(context.Background())
	if got := v.take(); got != "[]" {
		t.Fatalf("a target back from a topology change kept its old count: %s", got)
	}
}

// tickClock hands every timer the loop arms to the test, so receiving
// from armed is the barrier that says the previous pass has finished
// and sending on the timer fires the next one. Now panics: the loop
// must only ever wait through After.
type tickClock struct{ armed chan timer }

type timer struct {
	d  time.Duration
	ch chan time.Time
}

func (tickClock) Now() time.Time { panic("probe loop read Clock.Now") }

func (c tickClock) After(d time.Duration) <-chan time.Time {
	tm := timer{d, make(chan time.Time, 1)}
	c.armed <- tm
	return tm.ch
}

// TestProberLoop pins the loop on an injected clock: an optional first
// wait, a pass per tick, Close stopping it with no goroutine left and
// aborting a pass in flight without a verdict.
func TestProberLoop(t *testing.T) {
	const interval = 3 * time.Second
	cases := []struct {
		name  string
		first time.Duration
	}{
		{"first pass at once", 0},
		{"first pass after one interval", interval},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			healthy := map[string]bool{"a": true}
			v := &verdicts{}
			clk := tickClock{armed: make(chan timer, 4)}
			cfg := scriptedConfig([]string{"a"}, healthy, &mu, v)
			cfg.Clock, cfg.First, cfg.Interval = clk, tc.first, interval
			p := NewProber(cfg)

			tm := <-clk.armed
			want := "[]"
			if tc.first == 0 {
				want = "[up a]"
			} else if tm.d != tc.first {
				t.Fatalf("first wait %v, want %v", tm.d, tc.first)
			} else {
				tm.ch <- time.Time{}
				tm = <-clk.armed
				want = "[up a]"
			}
			if got := v.take(); got != want {
				t.Fatalf("verdicts before the first interval tick: %s, want %s", got, want)
			}
			if tm.d != interval {
				t.Fatalf("wait between passes %v, want %v", tm.d, interval)
			}
			tm.ch <- time.Time{}
			tm = <-clk.armed
			if got := v.take(); got != "[up a]" {
				t.Fatalf("verdicts after a tick: %s, want [up a]", got)
			}

			p.Close()
			p.Close() // idempotent
			select {
			case <-p.done:
			default:
				t.Fatal("Close returned with the loop goroutine still running")
			}
			if got := v.take(); got != "[]" {
				t.Fatalf("verdicts after Close: %s", got)
			}
		})
	}

	t.Run("Close aborts a pass in flight", func(t *testing.T) {
		v := &verdicts{}
		started := make(chan struct{})
		clk := tickClock{armed: make(chan timer, 4)}
		p := NewProber(ProbeConfig[string]{
			Targets: func() []string { return []string{"a"} },
			Check: func(ctx context.Context, _ string) error {
				close(started)
				<-ctx.Done()
				return ctx.Err()
			},
			Verdict:  v.record,
			Clock:    clk,
			Interval: interval,
		})
		<-started
		p.Close()
		if got := v.take(); got != "[]" {
			t.Fatalf("a pass cut short by Close handed out verdicts: %s", got)
		}
	})
}

// TestProberTimeout: a check that outlives Timeout fails as its own
// verdict, while the pass itself goes on.
func TestProberTimeout(t *testing.T) {
	v := &verdicts{}
	p := NewProber(ProbeConfig[string]{
		Targets: func() []string { return []string{"slow"} },
		Check: func(ctx context.Context, _ string) error {
			<-ctx.Done()
			return ctx.Err()
		},
		Verdict: v.record,
		Timeout: time.Millisecond,
	})
	defer p.Close()
	p.ProbeNow(context.Background())
	if got, want := v.take(), "[down slow 1 "+context.DeadlineExceeded.Error()+"]"; got != want {
		t.Fatalf("verdicts %s, want %s", got, want)
	}
}
