package registry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzManifestRead holds parseManifest to its decode-boundary contract:
// manifests are operator-editable JSON, and whatever is in the file, the
// parser must return a validated manifest or an error — never panic, and
// never accept a manifest whose fields later code cannot rely on.
func FuzzManifestRead(f *testing.F) {
	marshal := func(m Manifest) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := Manifest{
		Format: ManifestFormat, Model: "m", Version: 1,
		SHA256:    strings.Repeat("ab", 32),
		SizeBytes: 128, PipelineFormat: 2, N: 4, P: 2,
	}
	f.Add(marshal(valid))
	sharded := valid
	sharded.Shards = 3
	sharded.ShardRanges = []ShardRange{{0, 2}, {2, 3}, {3, 4}}
	f.Add(marshal(sharded))
	f.Add([]byte("{}"))
	f.Add([]byte("not json at all"))
	f.Add([]byte(`{"format":1,"model":"m","version":1,"sha256":"xyz","n":-2,"p":0}`))
	f.Add([]byte(`{"format":1,"model":"../../etc","version":1}`))
	badShards := sharded
	badShards.ShardRanges = []ShardRange{{0, 4}, {1, 2}, {3, 4}}
	f.Add(marshal(badShards))
	scored := valid
	scored.Leakage = &Leakage{Strategy: "oracle", SSIM: 0.125, PSNR: 13.6, Floor: 0.148, Seed: 7920, Calibration: 64}
	f.Add(marshal(scored))

	f.Fuzz(func(t *testing.T, data []byte) {
		man, err := parseManifest(data, "m", 1)
		if err != nil {
			if man != nil {
				t.Fatal("parseManifest returned both a manifest and an error")
			}
			return
		}
		if man.Model != "m" || man.Version != 1 {
			t.Fatalf("accepted manifest for wrong identity: %+v", man)
		}
		if man.N <= 0 || man.P <= 0 || man.P > man.N {
			t.Fatalf("accepted invalid ensemble shape: %+v", man)
		}
		if man.Shards > 0 && len(man.ShardRanges) != man.Shards {
			t.Fatalf("accepted inconsistent shard plan: %+v", man)
		}
		if man.Leakage != nil && validLeakage(man.Leakage) != nil {
			t.Fatalf("accepted invalid leakage score: %+v", *man.Leakage)
		}
	})
}

// TestParseManifestLeakage: a manifest without a leakage field reads as "not
// recorded" (nil), a well-formed score reads back exactly, and a score that
// is not finite, has an SSIM outside [-1, 1], names no strategy or claims no
// calibration images is refused at the decode boundary.
func TestParseManifestLeakage(t *testing.T) {
	valid := Manifest{
		Format: ManifestFormat, Model: "m", Version: 1,
		SHA256:    strings.Repeat("ab", 32),
		SizeBytes: 128, PipelineFormat: 2, N: 4, P: 2,
	}
	withLeakage := func(raw string) []byte {
		b, err := json.Marshal(valid)
		if err != nil {
			t.Fatal(err)
		}
		return append(b[:len(b)-1], []byte(`,"leakage":`+raw+`}`)...)
	}
	b, err := json.Marshal(valid)
	if err != nil {
		t.Fatal(err)
	}
	man, err := parseManifest(b, "m", 1)
	if err != nil || man.Leakage != nil {
		t.Fatalf("manifest without a score: %+v, %v; want not recorded", man, err)
	}
	man, err = parseManifest(withLeakage(`{"strategy":"oracle","ssim":-0.25,"psnr":13.5,"floor":0.15,"seed":7920,"calibration":64}`), "m", 1)
	want := Leakage{Strategy: "oracle", SSIM: -0.25, PSNR: 13.5, Floor: 0.15, Seed: 7920, Calibration: 64}
	if err != nil || man.Leakage == nil || *man.Leakage != want {
		t.Fatalf("recorded score read back as %+v (%v), want %+v", man, err, want)
	}
	for _, raw := range []string{
		`{"strategy":"oracle","ssim":NaN,"psnr":13.5,"floor":0.15,"calibration":64}`,
		`{"strategy":"oracle","ssim":0.1,"psnr":1e999,"floor":0.15,"calibration":64}`,
		`{"strategy":"oracle","ssim":0.1,"psnr":-1e999,"floor":0.15,"calibration":64}`,
		`{"strategy":"oracle","ssim":1.5,"psnr":13.5,"floor":0.15,"calibration":64}`,
		`{"strategy":"oracle","ssim":-1.01,"psnr":13.5,"floor":0.15,"calibration":64}`,
		`{"strategy":"oracle","ssim":0.1,"psnr":13.5,"floor":2,"calibration":64}`,
		`{"strategy":"","ssim":0.1,"psnr":13.5,"floor":0.15,"calibration":64}`,
		`{"ssim":0.1,"psnr":13.5,"floor":0.15,"calibration":64}`,
		`{"strategy":"oracle","ssim":0.1,"psnr":13.5,"floor":0.15,"calibration":0}`,
	} {
		if man, err := parseManifest(withLeakage(raw), "m", 1); err == nil {
			t.Errorf("accepted leakage %s as %+v", raw, *man.Leakage)
		}
	}
	// Non-finite values cannot come from JSON bytes; the same check refuses
	// them before a publish could try to write them.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		l := want
		l.PSNR = v
		if validLeakage(&l) == nil {
			t.Errorf("accepted PSNR %v", v)
		}
	}
}
