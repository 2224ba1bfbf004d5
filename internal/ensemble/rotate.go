package ensemble

import (
	"bytes"
	"fmt"
	"io"

	"ensembler/internal/data"
	"ensembler/internal/rng"
	"ensembler/internal/split"
)

// Selector rotation: a long-lived deployment serving every request under the
// same secret subset leaks more to an honest-but-curious server with every
// round trip (and a static ensemble is eventually invertible — see
// PAPERS.md on switching ensembles). Rotate bounds that exposure by
// re-drawing the secret P-subset into a new pipeline value, leaving the
// original untouched so a server can keep answering in-flight requests on
// the old epoch while the new one is published. The N server bodies are
// deliberately NOT retrained: rotation must be invisible on the wire, and a
// body-weight change would be observable (and expensive). Only the
// client-side secret — selector, and optionally the stage-3 head/noise/tail
// tuned to the new subset — changes, so the rotated pipeline shares the
// parent's member networks instead of copying them.

// RotateOptions configures one selector rotation.
type RotateOptions struct {
	// Seed drives the fresh secret subset draw (and the fine-tune shuffle).
	Seed int64
	// Tune, when non-nil, re-runs stage-3 fine-tuning of the head/noise/tail
	// against the newly selected frozen bodies on this dataset. Without it
	// the stage-3 networks are kept as-is, which preserves the wire protocol
	// but costs accuracy: the tail was trained for the previous subset.
	Tune *data.Dataset
	// TuneOpts overrides Cfg.Stage3 for the fine-tune when any field is set
	// (a rotation typically runs far fewer epochs than initial training).
	TuneOpts split.TrainOptions
	// Log receives progress lines (optional).
	Log io.Writer
}

// Clone returns a deep copy of the pipeline — independent networks, noise
// tensors, and selector — by round-tripping through the persistence format.
// A tuned rotation fine-tunes on one, because stage 3 writes layer caches
// and gradients on the selected bodies: the original, and every rotation
// sharing its bodies, stays safe for concurrent readers throughout.
func (e *Ensembler) Clone() (*Ensembler, error) {
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		return nil, fmt.Errorf("ensemble: cloning pipeline: %w", err)
	}
	c, err := Load(&buf)
	if err != nil {
		return nil, fmt.Errorf("ensemble: cloning pipeline: %w", err)
	}
	return c, nil
}

// Rotate returns a pipeline with a freshly drawn secret selector (guaranteed
// to differ from the current one whenever N and P allow more than one
// subset) and, if opts.Tune is set, stage-3 head/noise/tail fine-tuned to
// the new subset. The result shares the receiver's Members — and, untuned,
// its Head, Noise and Tail — so a rotation costs no body memory; a tuned
// rotation trains on a private Clone and keeps only that copy's head, noise
// and tail. The receiver is not modified. Shared networks share their
// forward caches, so the receiver and the result must not run Predict or
// ServerCompute concurrently; concurrent passes use CloneBodies copies (or,
// to serve, a compiled form, which only reads the shared weights).
func (e *Ensembler) Rotate(opts RotateOptions) (*Ensembler, error) {
	c := *e
	r := rng.New(opts.Seed)
	c.Selector = NewSelector(c.Cfg.N, c.Cfg.P, r)
	// A rotation that lands on the same subset rotates nothing; redraw until
	// it moves (possible unless the subset space is a single point).
	if sameIndices(c.Selector.Indices, e.Selector.Indices) && !singleSubset(c.Cfg.N, c.Cfg.P) {
		for sameIndices(c.Selector.Indices, e.Selector.Indices) {
			c.Selector = NewSelector(c.Cfg.N, c.Cfg.P, r.Split())
		}
	}
	if opts.Log != nil {
		fmt.Fprintf(opts.Log, "rotate: selection %v -> %v\n", e.Selector.Indices, c.Selector.Indices)
	}
	if opts.Tune != nil {
		t, err := e.Clone()
		if err != nil {
			return nil, err
		}
		t.Selector = c.Selector
		if anyTrainOption(opts.TuneOpts) {
			t.Cfg.Stage3 = opts.TuneOpts
		}
		t.trainStage3(opts.Tune, opts.Log)
		c.Cfg, c.Head, c.Noise, c.Tail = t.Cfg, t.Head, t.Noise, t.Tail
	}
	return &c, nil
}

// sameIndices reports whether two ascending index lists are identical.
func sameIndices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// singleSubset reports whether choosing P of N admits exactly one subset.
func singleSubset(n, p int) bool { return p == n || p == 0 }

// anyTrainOption reports whether the caller set any override field. Checked
// field by field because TrainOptions carries an io.Writer, which a struct
// equality test could panic on.
func anyTrainOption(o split.TrainOptions) bool {
	return o.Epochs != 0 || o.BatchSize != 0 || o.LR != 0 ||
		o.Momentum != 0 || o.WeightDecay != 0 || o.Seed != 0 || o.Log != nil
}
