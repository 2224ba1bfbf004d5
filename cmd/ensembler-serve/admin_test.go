package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ensembler/internal/shard"
	"ensembler/internal/telemetry"
)

// TestHealthzFleetBreakerSummary drives the admin plane's fleet hook
// directly: a plane wired to a fleet health snapshot must render per-shard
// breaker rows and degrade the overall status while any circuit is open.
func TestHealthzFleetBreakerSummary(t *testing.T) {
	_, reg := publishTiny(t, 0)
	plane := &adminPlane{
		reg: reg, model: "tiny", treg: telemetry.NewRegistry(), start: time.Now(),
		fleet: func() []shard.Health {
			return []shard.Health{
				{Addr: "127.0.0.1:1", Bodies: shard.Range{Lo: 0, Hi: 2}, Breaker: shard.BreakerClosed, Requests: 10},
				{Addr: "127.0.0.1:2", Bodies: shard.Range{Lo: 2, Hi: 4}, Breaker: shard.BreakerOpen,
					Requests: 7, Failures: 3, ShortCircuits: 4, BreakerOpens: 1,
					ReopenIn: 250 * time.Millisecond, ConsecutiveFailures: 3, LastErr: "connection refused"},
			}
		},
	}
	rec := httptest.NewRecorder()
	plane.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	body := rec.Body.String()
	if rec.Code != 200 {
		t.Fatalf("/healthz = %d %q", rec.Code, body)
	}
	for _, want := range []string{
		`"status": "degraded"`, `"breaker": "closed"`, `"breaker": "open"`,
		`"short_circuits": 4`, `"reopen_in_ms": 250`, `"last_err": "connection refused"`,
		`"bodies": "0..1"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/healthz fleet summary missing %s in %q", want, body)
		}
	}

	// All circuits closed → plain ok.
	plane.fleet = func() []shard.Health {
		return []shard.Health{{Addr: "127.0.0.1:1", Breaker: shard.BreakerClosed}}
	}
	rec = httptest.NewRecorder()
	plane.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if body := rec.Body.String(); !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("healthy fleet reported %q", body)
	}
}
