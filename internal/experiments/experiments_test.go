package experiments

import (
	"bytes"
	"strings"
	"testing"

	"ensembler/internal/attack"
	"ensembler/internal/data"
)

func TestScalesAreValid(t *testing.T) {
	for _, sc := range []Scale{Small(), Paper()} {
		if sc.P > sc.N || sc.P < 1 {
			t.Errorf("invalid N/P: %+v", sc)
		}
		if sc.Train == 0 || sc.Aux == 0 || sc.Test == 0 {
			t.Errorf("zero dataset sizes: %+v", sc)
		}
		if sc.Sigma <= 0 || sc.Lambda <= 0 {
			t.Errorf("defense knobs unset: %+v", sc)
		}
	}
	if Paper().N != 10 {
		t.Error("paper scale must use N=10")
	}
}

func TestRenderRows(t *testing.T) {
	var buf bytes.Buffer
	RenderRows(&buf, "Table X", []Row{{Name: "None", DeltaAcc: 0.01, SSIM: 0.5, PSNR: 9.9}})
	out := buf.String()
	for _, want := range []string{"Table X", "None", "0.500", "9.90", "1.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIIRows(t *testing.T) {
	rows := TableIII(10)
	if len(rows) != 3 {
		t.Fatalf("Table III must have 3 rows, got %d", len(rows))
	}
	if rows[0].Name != "Standard CI" || rows[1].Name != "Ensembler" || rows[2].Name != "STAMP" {
		t.Errorf("row names: %v %v %v", rows[0].Name, rows[1].Name, rows[2].Name)
	}
	var buf bytes.Buffer
	RenderTableIII(&buf, rows)
	if !strings.Contains(buf.String(), "Standard CI") {
		t.Error("render missing rows")
	}
}

func TestComputeClaims(t *testing.T) {
	// Each drop is scored against the strongest attack on Ours: the highest
	// SSIM (Ours - SSIM, 0.2 → 50%) and the highest PSNR (Ours - SSIM, 8 →
	// 20%), not the weakest. The None row shows the attack works.
	rows := []Row{
		{Name: "None", SSIM: 0.6, PSNR: 14},
		{Name: "Single", SSIM: 0.4, PSNR: 10},
		{Name: "Ours - Adaptive", SSIM: 0.1, PSNR: 6},
		{Name: "Ours - SSIM", SSIM: 0.2, PSNR: 8},
	}
	rep := ComputeClaims(rows, 10)
	if rep.SSIMDropVsSingle < 49 || rep.SSIMDropVsSingle > 51 {
		t.Errorf("SSIM drop = %.1f, want 50", rep.SSIMDropVsSingle)
	}
	if rep.PSNRDropVsSingle < 19 || rep.PSNRDropVsSingle > 21 {
		t.Errorf("PSNR drop = %.1f, want 20", rep.PSNRDropVsSingle)
	}
	if rep.SSIMRow != "Ours - SSIM" || rep.PSNRRow != "Ours - SSIM" {
		t.Errorf("scored against %q / %q, want Ours - SSIM for both", rep.SSIMRow, rep.PSNRRow)
	}
	if rep.LatencyOverhead <= 0 {
		t.Error("latency overhead must be positive")
	}
	if rep.AttackFailed {
		t.Error("a working attack was reported as failed")
	}

	// Adaptive is the strongest attack by SSIM, a single-body attack by PSNR.
	rows = []Row{
		{Name: "None", SSIM: 0.6, PSNR: 14},
		{Name: "Single", SSIM: 0.4, PSNR: 10},
		{Name: "Ours - Adaptive", SSIM: 0.3, PSNR: 7},
		{Name: "Ours - SSIM", SSIM: 0.2, PSNR: 6},
		{Name: "Ours - PSNR", SSIM: 0.1, PSNR: 9},
	}
	rep = ComputeClaims(rows, 10)
	if rep.SSIMRow != "Ours - Adaptive" || rep.SSIMDropVsSingle < 24 || rep.SSIMDropVsSingle > 26 {
		t.Errorf("SSIM drop = %.1f against %q, want 25 against Ours - Adaptive", rep.SSIMDropVsSingle, rep.SSIMRow)
	}
	if rep.PSNRRow != "Ours - PSNR" || rep.PSNRDropVsSingle < 9 || rep.PSNRDropVsSingle > 11 {
		t.Errorf("PSNR drop = %.1f against %q, want 10 against Ours - PSNR", rep.PSNRDropVsSingle, rep.PSNRRow)
	}

	// An attack that cannot invert the undefended pipeline (None below
	// attack.SSIMFloor) supports no drop, however large the arithmetic
	// says it is; a missing None row is the same.
	failed := append([]Row{{Name: "None", SSIM: attack.SSIMFloor / 2, PSNR: 14}}, rows[1:]...)
	for _, rs := range [][]Row{failed, rows[1:]} {
		rep = ComputeClaims(rs, 10)
		if !rep.AttackFailed || rep.SSIMDropVsSingle != 0 || rep.PSNRDropVsSingle != 0 || rep.SSIMRow != "" {
			t.Errorf("claims over a failed attack = %+v, want withheld", rep)
		}
		if rep.LatencyOverhead <= 0 {
			t.Error("the latency claim does not depend on the attack")
		}
	}
}

func TestComputeClaimsHandlesMissingRows(t *testing.T) {
	rep := ComputeClaims([]Row{{Name: "None"}}, 5)
	if rep.SSIMDropVsSingle != 0 || rep.PSNRDropVsSingle != 0 {
		t.Error("missing rows must yield zero claims, not panic")
	}
}

// microScale is the smallest configuration that still exercises every code
// path of the table machinery.
func microScale() Scale {
	return Scale{
		N: 2, P: 2, Sigma: 0.05, Lambda: 0.5,
		Stage1Epochs: 2, Stage3Epochs: 2,
		ShadowEpochs: 2, DecoderEpochs: 2, Restarts: 1,
		Train: 96, Aux: 48, Test: 32, EvalSamples: 8, BatchSize: 16,
	}
}

func TestDatasetRowsIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	rows := datasetRows(microScale(), data.CIFAR10Like, 2, 99, false, nil)
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.SSIM < -1 || r.SSIM > 1 {
			t.Errorf("%s SSIM out of range: %v", r.Name, r.SSIM)
		}
	}
	for _, want := range []string{"Single", "Ours - Adaptive", "Ours - SSIM", "Ours - PSNR"} {
		if !names[want] {
			t.Errorf("missing row %q", want)
		}
	}
}

func TestTableIIIncludesAllBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	rows := TableII(microScale(), 123, nil)
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
	}
	for _, want := range []string{"None", "Shredder", "Single", "DR-single", "DR-2 - SSIM", "DR-2 - PSNR", "Ours - Adaptive"} {
		if !names[want] {
			t.Errorf("Table II missing row %q (have %v)", want, names)
		}
	}
}
