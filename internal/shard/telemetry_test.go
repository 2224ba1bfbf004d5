package shard_test

import (
	"context"
	"strings"
	"testing"

	"ensembler/internal/commtest"
	"ensembler/internal/ensemble"
	"ensembler/internal/shard"
	"ensembler/internal/telemetry"
)

// TestFleetMetricsExportAndRotateFanOut drives a K=2 fleet through an
// instrumented scatter-gather client and checks the exported per-shard
// series tell the story — then rotates the registry's selector and fans the
// rotation out to the fleet client, verifying inference matches the rotated
// pipeline afterwards (the shard servers are never touched by a rotation).
func TestFleetMetricsExportAndRotateFanOut(t *testing.T) {
	f := commtest.StartShards(t, 2, 4, 2, 51)
	client, err := shard.NewClient(f.ClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	treg := telemetry.NewRegistry()
	client.RegisterMetrics(treg)

	ctx := context.Background()
	images := imageBatch(2, 9)
	got, _, err := client.Infer(ctx, images)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(f.Pipeline.Predict(images), 1e-9) {
		t.Fatal("fleet inference does not match the pipeline")
	}

	var b strings.Builder
	if err := treg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ensembler_shard_up{bodies="0..1",shard="1"} 1`,
		`ensembler_shard_up{bodies="2..3",shard="2"} 1`,
		`ensembler_shard_requests_total{bodies="0..1",shard="1"} 1`,
		`ensembler_shard_requests_total{bodies="2..3",shard="2"} 1`,
		`ensembler_shard_failures_total{bodies="0..1",shard="1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Rotation fan-out: re-draw the secret subset in the registry, fan it
	// out to the fleet client, and verify the fleet now matches the rotated
	// pipeline.
	ep, err := f.Registry.RotateSelector("fleet", ensemble.RotateOptions{Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	client.RotateTo(ep.Pipeline())
	got, _, err = client.Infer(ctx, images)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(ep.Pipeline().Predict(images), 1e-9) {
		t.Error("post-rotation fleet inference does not match the rotated pipeline")
	}
	if n := f.Registry.RotationCount("fleet"); n != 1 {
		t.Errorf("rotation count = %d, want 1", n)
	}
}

// TestFleetMetricsReportDownShard kills a shard and checks the up gauge
// flips once the health tracker marks it down.
func TestFleetMetricsReportDownShard(t *testing.T) {
	// P=1 guarantees one of the two shards hosts no selected body.
	f := commtest.StartShards(t, 2, 4, 1, 53)
	p := shard.DefaultPolicy
	p.Retries, p.DownAfter = 0, 1
	client, err := shard.NewClient(shard.WithPolicy(f.ClientConfig(), p))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	treg := telemetry.NewRegistry()
	client.RegisterMetrics(treg)

	_, unselected := shardHosting(t, f)
	if err := f.StopShard(unselected); err != nil {
		t.Fatalf("stopping shard: %v", err)
	}
	// Traffic keeps flowing (the dead shard hosts no selected body); its
	// failure marks it down.
	if _, _, err := client.Infer(context.Background(), imageBatch(1, 10)); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := treg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `ensembler_shard_up{bodies="` + f.Ranges[unselected].String() + `",shard="` +
		string(rune('1'+unselected)) + `"} 0`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, b.String())
	}
}
