package webapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/overload"
	"repro/internal/tier"
)

// TestSearchErrMapping pins the non-2xx vocabulary of the search error
// mapper: a client hangup is the typed 499 — never a generic 500 — and
// a spent budget is the typed 504, from either the local sentinel or a
// lower tier's context error. (The gate's own refusals — arrival
// check, shed, queue expiry — are pinned for every tier at once by the
// contract table in internal/tier.)
func TestSearchErrMapping(t *testing.T) {
	_, _, srv := newTestServer(t)
	cases := []struct {
		err        error
		wantStatus int
		wantCode   string
	}{
		{context.Canceled, tier.StatusClientClosed, tier.CodeCanceled},
		{fmt.Errorf("scatter: %w", context.Canceled), tier.StatusClientClosed, tier.CodeCanceled},
		{overload.ErrDeadlineExceeded, http.StatusGatewayTimeout, tier.CodeDeadline},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, tier.CodeDeadline},
		{errors.New("disk on fire"), http.StatusInternalServerError, tier.CodeInternal},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		srv.writeSearchErr(rec, tc.err, "sess")
		var env tier.ErrorEnvelope
		if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
			t.Fatalf("%v: decode envelope: %v", tc.err, err)
		}
		if rec.Code != tc.wantStatus || env.Error.Code != tc.wantCode || env.Error.Message == "" {
			t.Errorf("%v: got %d %+v, want %d %q", tc.err, rec.Code, env.Error, tc.wantStatus, tc.wantCode)
		}
	}
	if n := srv.gate.DeadlineExceeded(); n != 2 {
		t.Errorf("deadline_exceeded counter = %d after 2 spent budgets, want 2", n)
	}
}
