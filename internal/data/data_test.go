package data

import (
	"testing"
	"testing/quick"

	"ensembler/internal/metrics"
	"ensembler/internal/rng"
)

func TestGenerateShapesAndRanges(t *testing.T) {
	for _, kind := range []Kind{CIFAR10Like, CIFAR100Like, CelebALike} {
		sp := Generate(Config{Kind: kind, Train: 40, Aux: 20, Test: 20, Seed: 1})
		for _, ds := range []*Dataset{sp.Train, sp.Aux, sp.Test} {
			if ds.Images.Shape[1] != 3 || ds.Images.Shape[2] != 16 || ds.Images.Shape[3] != 16 {
				t.Fatalf("%s: shape %v", ds.Name, ds.Images.Shape)
			}
			for _, v := range ds.Images.Data {
				if v < 0 || v > 1 {
					t.Fatalf("%s: pixel %v out of [0,1]", ds.Name, v)
				}
			}
			if len(ds.Labels) != ds.Len() {
				t.Fatalf("%s: %d labels for %d images", ds.Name, len(ds.Labels), ds.Len())
			}
			for _, l := range ds.Labels {
				if l < 0 || l >= ds.Classes {
					t.Fatalf("%s: label %d out of range", ds.Name, l)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Kind: CIFAR10Like, Train: 16, Aux: 8, Test: 8, Seed: 7})
	b := Generate(Config{Kind: CIFAR10Like, Train: 16, Aux: 8, Test: 8, Seed: 7})
	if !a.Train.Images.AllClose(b.Train.Images, 0) {
		t.Error("same seed must reproduce the same images")
	}
	c := Generate(Config{Kind: CIFAR10Like, Train: 16, Aux: 8, Test: 8, Seed: 8})
	if a.Train.Images.AllClose(c.Train.Images, 1e-9) {
		t.Error("different seeds should give different images")
	}
}

func TestSplitsAreDisjointStreams(t *testing.T) {
	sp := Generate(Config{Kind: CIFAR10Like, Train: 10, Aux: 10, Test: 10, Seed: 3})
	// Train[0] and Aux[0] share a label (both i%classes) but must not be the
	// same image.
	if sp.Train.Images.SampleView(0).AllClose(sp.Aux.Images.SampleView(0), 1e-9) {
		t.Error("train and aux must be sample-disjoint")
	}
}

func TestClassesAreBalanced(t *testing.T) {
	sp := Generate(Config{Kind: CIFAR10Like, Train: 100, Aux: 10, Test: 10, Seed: 4})
	counts := map[int]int{}
	for _, l := range sp.Train.Labels {
		counts[l]++
	}
	for k := 0; k < 10; k++ {
		if counts[k] != 10 {
			t.Errorf("class %d has %d samples, want 10", k, counts[k])
		}
	}
}

// Property: same-class samples are more similar (SSIM) to each other than the
// average cross-class pair — the class structure a model can learn.
func TestSameClassMoreSimilar(t *testing.T) {
	sp := Generate(Config{Kind: CIFAR10Like, Train: 60, Aux: 10, Test: 10, Seed: 5})
	ds := sp.Train
	same, sameN := 0.0, 0
	diff, diffN := 0.0, 0
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			s := metrics.SSIM(ds.Images.SampleView(i), ds.Images.SampleView(j))
			if ds.Labels[i] == ds.Labels[j] {
				same += s
				sameN++
			} else {
				diff += s
				diffN++
			}
		}
	}
	if same/float64(sameN) <= diff/float64(diffN) {
		t.Errorf("same-class SSIM %.3f should exceed cross-class %.3f",
			same/float64(sameN), diff/float64(diffN))
	}
}

func TestFacesIdentityStructure(t *testing.T) {
	sp := Generate(Config{Kind: CelebALike, Train: 64, Aux: 8, Test: 8, Seed: 6})
	ds := sp.Train
	same, sameN := 0.0, 0
	diff, diffN := 0.0, 0
	for i := 0; i < 32; i++ {
		for j := i + 1; j < 32; j++ {
			s := metrics.SSIM(ds.Images.SampleView(i), ds.Images.SampleView(j))
			if ds.Labels[i] == ds.Labels[j] {
				same += s
				sameN++
			} else {
				diff += s
				diffN++
			}
		}
	}
	if same/float64(sameN) <= diff/float64(diffN) {
		t.Errorf("same-identity SSIM %.3f should exceed cross-identity %.3f",
			same/float64(sameN), diff/float64(diffN))
	}
}

func TestBatchGathersCorrectSamples(t *testing.T) {
	sp := Generate(Config{Kind: CIFAR10Like, Train: 20, Aux: 4, Test: 4, Seed: 9})
	x, labels := sp.Train.Batch([]int{3, 17, 5})
	if x.Shape[0] != 3 {
		t.Fatalf("batch shape %v", x.Shape)
	}
	for bi, i := range []int{3, 17, 5} {
		if labels[bi] != sp.Train.Labels[i] {
			t.Errorf("label %d mismatch", bi)
		}
		if !x.SampleView(bi).AllClose(sp.Train.Images.SampleView(i), 0) {
			t.Errorf("sample %d mismatch", bi)
		}
	}
}

// Property: Batches covers every index exactly once.
func TestBatchesPartition(t *testing.T) {
	sp := Generate(Config{Kind: CIFAR10Like, Train: 33, Aux: 4, Test: 4, Seed: 10})
	f := func(seed int64, bsRaw uint8) bool {
		bs := int(bsRaw%16) + 1
		batches := sp.Train.Batches(bs, rng.New(seed))
		seen := map[int]int{}
		for _, b := range batches {
			if len(b) > bs {
				return false
			}
			for _, i := range b {
				seen[i]++
			}
		}
		if len(seen) != 33 {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCustomSize(t *testing.T) {
	sp := Generate(Config{Kind: CelebALike, H: 24, W: 20, Train: 8, Aux: 4, Test: 4, Seed: 11})
	if sp.Train.Images.Shape[2] != 24 || sp.Train.Images.Shape[3] != 20 {
		t.Errorf("custom size shape %v", sp.Train.Images.Shape)
	}
}

func TestKindStrings(t *testing.T) {
	if CIFAR10Like.String() != "cifar10-like" || CelebALike.Classes() != 8 {
		t.Error("Kind metadata wrong")
	}
}
