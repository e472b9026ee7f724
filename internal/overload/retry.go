package overload

import "sync"

// RetryBudget is a token bucket bounding retry amplification: every
// retry (hedge, failover, SDK replay) spends a token, and tokens are
// earned as a fraction of primary launches, so retried traffic
// converges to at most `ratio` of primary traffic no matter how hard
// the far side is failing. The initial balance (`burst`) absorbs a
// cold-start failure burst. All methods are nil-safe: a nil budget is
// unlimited.
type RetryBudget struct {
	mu sync.Mutex
	// Integer milli-tokens, so fractional earn rates accumulate
	// exactly (10 earns at ratio 0.1 buy precisely one retry — float
	// accumulation would round it away).
	earnMilli int64
	maxMilli  int64
	milli     int64
	unlimited bool
	taken     int64
	denied    int64
}

// NewRetryBudget builds a bucket earning ratio tokens per primary,
// starting at (and capped by) burst. ratio <= 0 disables the bound:
// every retry is granted, and still counted.
func NewRetryBudget(ratio float64, burst int) *RetryBudget {
	return &RetryBudget{
		earnMilli: int64(ratio * 1000),
		maxMilli:  int64(burst) * 1000,
		milli:     int64(burst) * 1000,
		unlimited: ratio <= 0,
	}
}

// Earn credits the bucket for one primary launch.
func (rb *RetryBudget) Earn() {
	if rb == nil || rb.unlimited {
		return
	}
	rb.mu.Lock()
	rb.milli += rb.earnMilli
	if rb.milli > rb.maxMilli {
		rb.milli = rb.maxMilli
	}
	rb.mu.Unlock()
}

// Take spends one token for a retry; false means the budget is
// exhausted and the retry must not be sent.
func (rb *RetryBudget) Take() bool {
	if rb == nil {
		return true
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.unlimited {
		rb.taken++
		return true
	}
	if rb.milli < 1000 {
		rb.denied++
		return false
	}
	rb.milli -= 1000
	rb.taken++
	return true
}

// RetryBudgetStats is a point-in-time snapshot for telemetry surfaces
// (the search.retry_budget block of /api/v1/metrics).
type RetryBudgetStats struct {
	// Tokens is the current balance (meaningless when Unlimited).
	Tokens float64 `json:"tokens"`
	// Taken counts granted retries; Denied counts retries refused
	// because the budget was spent.
	Taken  int64 `json:"taken"`
	Denied int64 `json:"denied"`
	// Unlimited marks a disabled budget (ratio <= 0).
	Unlimited bool `json:"unlimited,omitempty"`
}

// Stats snapshots the bucket.
func (rb *RetryBudget) Stats() RetryBudgetStats {
	if rb == nil {
		return RetryBudgetStats{Unlimited: true}
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return RetryBudgetStats{Tokens: float64(rb.milli) / 1000, Taken: rb.taken, Denied: rb.denied, Unlimited: rb.unlimited}
}
