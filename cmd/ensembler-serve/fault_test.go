package main

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ensembler/internal/faultpoint"
	"ensembler/internal/shard"
	"ensembler/internal/telemetry"
)

// TestRunRefusesFaultpointsWithoutFlag: ENSEMBLER_FAULTPOINTS in the
// environment must hard-fail startup unless the operator passed
// -allow-faultpoints — a chaos harness's env var must never ride silently
// into a production restart.
func TestRunRefusesFaultpointsWithoutFlag(t *testing.T) {
	defer faultpoint.DisableAll()
	dir, _ := publishTiny(t, 0)
	t.Setenv(faultpoint.EnvVar, "comm/frame-read=error:p=0.5")
	err := run(context.Background(), []string{"-model-dir", dir, "-addr", "127.0.0.1:0"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("run served with ENSEMBLER_FAULTPOINTS set and no -allow-faultpoints")
	}
	if !strings.Contains(err.Error(), "-allow-faultpoints") {
		t.Fatalf("refusal does not name the override flag: %v", err)
	}
	// A malformed spec must also fail loudly when the flag IS passed.
	t.Setenv(faultpoint.EnvVar, "comm/frame-read=no-such-kind")
	err = run(context.Background(), []string{"-model-dir", dir, "-addr", "127.0.0.1:0", "-allow-faultpoints"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no-such-kind") {
		t.Fatalf("malformed spec: err = %v, want a parse failure", err)
	}
}

// TestRunArmsFaultpointsWithFlag: with the override flag the env spec arms,
// the armed sites surface on /healthz, and the server still serves.
func TestRunArmsFaultpointsWithFlag(t *testing.T) {
	defer faultpoint.DisableAll()
	dir, _ := publishTiny(t, 0)
	// Probability 0 arms the site without ever firing — the test wants the
	// visibility plumbing, not actual faults in the round trip.
	t.Setenv(faultpoint.EnvVar, "comm/frame-read=error:p=0.0")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc, done := runAsync(ctx, t, []string{
		"-model-dir", dir, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		"-workers", "2", "-allow-faultpoints",
	})
	scrapeAddr(t, sc, done)
	admin := "http://" + scrapeAdminAddr(t, sc, done)
	go func() {
		for sc.Scan() {
		}
	}()

	armed := faultpoint.Active()
	found := false
	for _, name := range armed {
		found = found || name == "comm/frame-read"
	}
	if !found {
		t.Errorf("env spec did not arm comm/frame-read (armed: %v)", armed)
	}
	if code, body := adminGet(t, admin+"/healthz"); code != 200 ||
		!strings.Contains(body, `"faultpoints"`) || !strings.Contains(body, "comm/frame-read") {
		t.Errorf("/healthz does not surface armed faultpoints: %d %q", code, body)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}
}

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
