package shard

import (
	"strconv"
	"time"

	"ensembler/internal/ensemble"
	"ensembler/internal/telemetry"
)

// RegisterMetrics exports the fleet's per-shard health into a telemetry
// registry: one labelled series per shard for liveness, breaker state,
// requests, failures, and short circuits. Everything is computed at scrape
// time from the breaker snapshot Health() reads, so the request path pays
// nothing — a scrape takes each shard's breaker mutex briefly.
//
// The labels deliberately name the shard index and its body range but never
// anything selection-dependent: the metrics endpoint is part of the server-
// side observable surface, and the secret subset must stay invisible there
// too (a scraper learning "shard 2 is down yet requests succeed" learns only
// what a wire observer already could).
func (c *Client) RegisterMetrics(reg *telemetry.Registry) {
	for k, b := range c.breakers {
		labels := telemetry.Labels{
			"shard":  strconv.Itoa(k + 1),
			"bodies": c.cfg.Ranges[k].String(),
		}
		series := func(f func(Health) float64) func() float64 {
			return func() float64 { return f(b.snapshot(time.Now())) }
		}
		reg.GaugeFunc("ensembler_shard_up",
			"1 while the shard's circuit is closed, 0 once it opens.",
			labels, series(func(h Health) float64 {
				if h.Breaker != BreakerClosed {
					return 0
				}
				return 1
			}))
		reg.GaugeFunc("ensembler_shard_breaker_state",
			"Circuit breaker state: 0 closed, 1 open, 2 half-open.",
			labels, series(func(h Health) float64 { return float64(h.Breaker) }))
		reg.CounterFunc("ensembler_shard_breaker_opens_total",
			"Times the shard's circuit opened (threshold trip or failed probe).",
			labels, series(func(h Health) float64 { return float64(h.BreakerOpens) }))
		reg.CounterFunc("ensembler_shard_short_circuits_total",
			"Requests answered by an open circuit without touching the wire.",
			labels, series(func(h Health) float64 { return float64(h.ShortCircuits) }))
		reg.CounterFunc("ensembler_shard_requests_total",
			"Feature exchanges attempted against the shard.",
			labels, series(func(h Health) float64 { return float64(h.Requests) }))
		reg.CounterFunc("ensembler_shard_failures_total",
			"Feature exchanges that exhausted their attempts.",
			labels, series(func(h Health) float64 { return float64(h.Failures) }))
	}
}

// RotateTo re-wires the scatter-gather client to a rotated pipeline — the
// fleet half of a selector rotation's fan-out. The registry publishes the
// rotated pipeline (new secret subset, optionally re-tuned stage-3
// networks); the shard servers never change, so the only propagation a
// rotation needs in a fleet is exactly this client-side swap. In-flight
// requests finish on the runtime they acquired; subsequent requests build
// runtimes cloned from the rotated pipeline.
func (c *Client) RotateTo(e *ensemble.Ensembler) {
	c.Reconfigure(PipelineRuntime(e))
}
