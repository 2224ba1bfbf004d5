package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"ensembler/internal/audit"
	"ensembler/internal/ensemble"
	"ensembler/internal/registry"
)

func TestKindFromName(t *testing.T) {
	for _, name := range []string{"cifar10", "cifar100", "celeba"} {
		if _, err := kindFromName(name); err != nil {
			t.Errorf("kindFromName(%q): %v", name, err)
		}
	}
	if _, err := kindFromName("mnist"); err == nil {
		t.Error("unknown workload must be rejected")
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "mnist"}, "unknown workload"},
		{[]string{"-n", "2", "-p", "3"}, "invalid ensemble shape"},
		{[]string{"-n", "0"}, "invalid ensemble shape"},
		{[]string{"-shards", "2"}, "requires -model-dir"},
		{[]string{"-model-dir", "d", "-n", "2", "-shards", "3"}, "invalid shard count"},
		{[]string{"stray"}, "unexpected arguments"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want %q", c.args, err, c.want)
		}
	}
}

// tinyTrainArgs keeps the real three-stage training pipeline down to a few
// seconds: a 2-member ensemble, one epoch per stage, 32 samples.
func tinyTrainArgs(extra ...string) []string {
	return append([]string{
		"-n", "2", "-p", "1", "-train", "32",
		"-stage1-epochs", "1", "-stage3-epochs", "1", "-seed", "3",
	}, extra...)
}

func TestTrainPublishesShardedManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	dir := filepath.Join(t.TempDir(), "models")
	var out bytes.Buffer
	err := run(tinyTrainArgs("-model-dir", dir, "-model-name", "tiny", "-shards", "2"), &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "published tiny v1") || !strings.Contains(out.String(), "2-shard fleet") {
		t.Errorf("publish banner missing: %s", out.String())
	}

	store, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Manifest("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	if man.N != 2 || man.P != 1 || man.Shards != 2 || len(man.ShardRanges) != 2 {
		t.Errorf("manifest did not record the fleet layout: %+v", man)
	}
	e, loaded, err := store.Load("tiny", 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version != 1 || e.Cfg.N != 2 || e.Cfg.P != 1 {
		t.Errorf("round-tripped pipeline wrong: v%d N=%d P=%d", loaded.Version, e.Cfg.N, e.Cfg.P)
	}
	// The recorded score is the published pipeline's own: rescoring the
	// artifact reproduces it exactly.
	want, err := audit.Score(e)
	if err != nil {
		t.Fatal(err)
	}
	if man.Leakage == nil || *man.Leakage != want {
		t.Errorf("manifest leakage = %+v, want the artifact's score %+v", man.Leakage, want)
	}
	if !strings.Contains(out.String(), "leakage: oracle attack SSIM") {
		t.Errorf("leakage line missing: %s", out.String())
	}
}

func TestTrainSavesSingleFile(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	out := filepath.Join(t.TempDir(), "m.gob")
	var stdout bytes.Buffer
	if err := run(tinyTrainArgs("-out", out), &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "saved pipeline to") {
		t.Errorf("save banner missing: %s", stdout.String())
	}
	e, err := ensemble.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if e.Cfg.N != 2 || e.Cfg.P != 1 || len(e.Selector.Indices) != 1 {
		t.Errorf("loaded pipeline wrong: %+v", e.Cfg)
	}
}
