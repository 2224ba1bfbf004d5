// Package data synthesizes the image-classification workloads of the
// Ensembler evaluation. The paper trains on CIFAR-10, CIFAR-100 and a
// CelebA-HQ subset; shipping those datasets is not possible here, so this
// package generates procedural stand-ins with the two properties the
// experiments rely on: (1) class-conditional structure a small CNN can
// learn, and (2) spatial structure (shapes, gratings, faces) that makes
// SSIM/PSNR of a reconstruction meaningful. Pixels live in [0,1], NCHW.
//
// Every dataset is split three ways: Train (the private training set), Aux
// (the attacker's in-distribution auxiliary data — same generator, disjoint
// samples, per the paper's threat model), and Test.
package data

import (
	"fmt"
	"math"

	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// Kind identifies which paper workload a generated dataset mimics.
type Kind int

const (
	// CIFAR10Like mimics CIFAR-10: 10 classes of textured objects.
	CIFAR10Like Kind = iota
	// CIFAR100Like mimics CIFAR-100 at coarse granularity: 20 classes with
	// finer-grained texture differences.
	CIFAR100Like
	// CelebALike mimics the CelebA-HQ identity subset: parametric face
	// sketches where the class is the identity.
	CelebALike
)

// String names the workload.
func (k Kind) String() string {
	switch k {
	case CIFAR10Like:
		return "cifar10-like"
	case CIFAR100Like:
		return "cifar100-like"
	case CelebALike:
		return "celeba-like"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Classes returns the number of classes the workload uses by default.
func (k Kind) Classes() int {
	switch k {
	case CIFAR10Like:
		return 10
	case CIFAR100Like:
		return 20
	case CelebALike:
		return 8
	default:
		return 10
	}
}

// Dataset is a labelled image set.
type Dataset struct {
	Name    string
	Images  *tensor.Tensor // [N, C, H, W], values in [0,1]
	Labels  []int
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.Images.Shape[0] }

// Batch gathers the given sample indices into a fresh [B,C,H,W] tensor and
// label slice.
func (d *Dataset) Batch(idxs []int) (*tensor.Tensor, []int) {
	c, h, w := d.Images.Shape[1], d.Images.Shape[2], d.Images.Shape[3]
	x := tensor.New(len(idxs), c, h, w)
	labels := make([]int, len(idxs))
	per := c * h * w
	for bi, i := range idxs {
		copy(x.Data[bi*per:(bi+1)*per], d.Images.Data[i*per:(i+1)*per])
		labels[bi] = d.Labels[i]
	}
	return x, labels
}

// Batches partitions a shuffled index range into batches of size bs (last
// batch may be smaller) and returns the index slices.
func (d *Dataset) Batches(bs int, r *rng.RNG) [][]int {
	idxs := r.Perm(d.Len())
	var out [][]int
	for start := 0; start < len(idxs); start += bs {
		end := start + bs
		if end > len(idxs) {
			end = len(idxs)
		}
		out = append(out, idxs[start:end])
	}
	return out
}

// Config controls synthesis.
type Config struct {
	Kind       Kind
	H, W       int // spatial size (default 16)
	Train      int // private training samples
	Aux        int // attacker auxiliary samples
	Test       int
	PixelNoise float64 // per-pixel Gaussian noise std (default 0.02)
	Seed       int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.H == 0 {
		c.H = 16
	}
	if c.W == 0 {
		c.W = c.H
	}
	if c.Train == 0 {
		c.Train = 512
	}
	if c.Aux == 0 {
		c.Aux = 256
	}
	if c.Test == 0 {
		c.Test = 256
	}
	if c.PixelNoise == 0 {
		c.PixelNoise = 0.02
	}
	return c
}

// Splits bundles the three dataset roles.
type Splits struct {
	Train *Dataset
	Aux   *Dataset
	Test  *Dataset
}

// Generate synthesizes a workload. The three splits come from independent
// sub-streams of the seed, so the attacker's Aux split is in-distribution
// but sample-disjoint from Train, matching the paper's query-free threat
// model.
func Generate(cfg Config) *Splits {
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed)
	gen := func(role string, n int, r *rng.RNG) *Dataset {
		classes := cfg.Kind.Classes()
		ds := &Dataset{
			Name:    fmt.Sprintf("%s/%s", cfg.Kind, role),
			Images:  tensor.New(n, 3, cfg.H, cfg.W),
			Labels:  make([]int, n),
			Classes: classes,
		}
		for i := 0; i < n; i++ {
			label := i % classes // balanced classes
			ds.Labels[i] = label
			img := ds.Images.SampleView(i)
			switch cfg.Kind {
			case CelebALike:
				drawFace(img, label, classes, r)
			default:
				drawObject(img, label, classes, cfg.Kind == CIFAR100Like, r)
			}
			addPixelNoise(img, cfg.PixelNoise, r)
			clamp01(img)
		}
		return ds
	}
	return &Splits{
		Train: gen("train", cfg.Train, root.Split()),
		Aux:   gen("aux", cfg.Aux, root.Split()),
		Test:  gen("test", cfg.Test, root.Split()),
	}
}

// addPixelNoise perturbs every pixel with Gaussian noise.
func addPixelNoise(img *tensor.Tensor, std float64, r *rng.RNG) {
	if std == 0 {
		return
	}
	for i := range img.Data {
		img.Data[i] += r.Normal(0, std)
	}
}

// clamp01 clips pixels into [0,1].
func clamp01(img *tensor.Tensor) {
	for i, v := range img.Data {
		if v < 0 {
			img.Data[i] = 0
		} else if v > 1 {
			img.Data[i] = 1
		}
	}
}

// palette returns a deterministic RGB color for class k.
func palette(k, classes int) (float64, float64, float64) {
	t := float64(k) / float64(classes)
	// Three phase-shifted cosines give well-separated, saturated colors.
	r := 0.5 + float64(0.45*math.Cos(2*math.Pi*t))
	g := 0.5 + float64(0.45*math.Cos(float64(2*math.Pi*t)+2.1))
	b := 0.5 + float64(0.45*math.Cos(float64(2*math.Pi*t)+4.2))
	return r, g, b
}

// setPx adds color to pixel (y,x) with weight a.
func setPx(img *tensor.Tensor, y, x int, cr, cg, cb, a float64) {
	h, w := img.Shape[1], img.Shape[2]
	if y < 0 || y >= h || x < 0 || x >= w {
		return
	}
	img.Data[0*h*w+y*w+x] = float64((1-a)*img.Data[0*h*w+y*w+x]) + float64(a*cr)
	img.Data[1*h*w+y*w+x] = float64((1-a)*img.Data[1*h*w+y*w+x]) + float64(a*cg)
	img.Data[2*h*w+y*w+x] = float64((1-a)*img.Data[2*h*w+y*w+x]) + float64(a*cb)
}

// drawObject renders a CIFAR-style sample. The class determines *what* is in
// the image (color palette, shape family, grating frequency band); everything
// about *where and how* it appears — position, scale, orientation, phase,
// background shade and gradient direction, per-sample color jitter — is
// random. High intra-class variation matters for the privacy evaluation:
// without it, an attacker scores SSIM by reconstructing the class prototype
// instead of the actual private input, masking the head-mismatch effect the
// defense produces (CIFAR has the same property).
func drawObject(img *tensor.Tensor, label, classes int, fineTexture bool, r *rng.RNG) {
	h, w := img.Shape[1], img.Shape[2]
	cr, cg, cb := palette(label, classes)
	// Per-sample color jitter on the class palette.
	jit := func(v float64) float64 { return clampA(v + r.Uniform(-0.15, 0.15)) }
	cr, cg, cb = jit(cr), jit(cg), jit(cb)

	// Background: gradient of the class color with random direction, base
	// level and span.
	base := r.Uniform(0.1, 0.45)
	span := r.Uniform(0.15, 0.5)
	gradAngle := r.Uniform(0, 2*math.Pi)
	gy, gx := math.Sin(gradAngle), math.Cos(gradAngle)
	diag := math.Hypot(float64(h-1), float64(w-1))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			proj := (float64(gx*float64(x)) + float64(gy*float64(y))) / diag
			shade := base + float64(span*(0.5+float64(proj/2)))
			setPx(img, y, x, cr*shade, cg*shade, cb*shade, 1)
		}
	}

	// Grating: the frequency band encodes the class; angle, phase, and
	// contrast are per-sample.
	freq := 2 * math.Pi / float64(w) * (2 + float64(label%3))
	if fineTexture {
		freq = 2 * math.Pi / float64(w) * (2 + float64(0.5*float64(label%7)))
	}
	angle := r.Uniform(0, math.Pi)
	phase := r.Uniform(0, 2*math.Pi)
	contrast := r.Uniform(0.15, 0.35)
	dirY, dirX := math.Sin(angle), math.Cos(angle)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := 0.5 + float64(0.5*math.Sin(float64(freq*(float64(dirX*float64(x))+float64(dirY*float64(y))))+phase))
			setPx(img, y, x, 1, 1, 1, contrast*s)
		}
	}

	// Foreground shape (class mod 4 selects the family) anywhere in frame,
	// wide scale range, jittered contrasting color.
	cx := float64(r.Uniform(0.2, 0.8) * float64(w))
	cy := float64(r.Uniform(0.2, 0.8) * float64(h))
	rad := float64(float64(min(h, w)) * r.Uniform(0.12, 0.34))
	sr, sg, sb := palette((label+classes/2)%classes, classes)
	sr, sg, sb = jit(sr), jit(sg), jit(sb)
	switch label % 4 {
	case 0: // disc
		fillDisc(img, cx, cy, rad, sr, sg, sb)
	case 1: // square
		fillRect(img, cx-rad, cy-rad, cx+rad, cy+rad, sr, sg, sb)
	case 2: // cross
		t := float64(rad * 0.45)
		fillRect(img, cx-rad, cy-t, cx+rad, cy+t, sr, sg, sb)
		fillRect(img, cx-t, cy-rad, cx+t, cy+rad, sr, sg, sb)
	case 3: // ring
		fillDisc(img, cx, cy, rad, sr, sg, sb)
		br, bg, bb := cr*0.4, cg*0.4, cb*0.4
		fillDisc(img, cx, cy, rad*0.55, br, bg, bb)
	}
}

// drawFace renders a CelebA-style identity: skin-toned ellipse with eyes and
// mouth whose geometry is identity-specific, with per-sample jitter.
func drawFace(img *tensor.Tensor, id, ids int, r *rng.RNG) {
	h, w := img.Shape[1], img.Shape[2]

	// Background: dark, slightly tinted per sample.
	bg := r.Uniform(0.05, 0.2)
	for i := range img.Data {
		img.Data[i] = bg
	}

	t := float64(id) / float64(ids)
	skinR := 0.75 + float64(0.2*math.Cos(2*math.Pi*t))
	skinG := 0.55 + float64(0.15*math.Cos(float64(2*math.Pi*t)+1.3))
	skinB := 0.45 + float64(0.1*math.Cos(float64(2*math.Pi*t)+2.6))

	cx := float64(float64(w)/2) + r.Uniform(-1.5, 1.5)
	cy := float64(float64(h)/2) + r.Uniform(-1.5, 1.5)
	// Identity-specific aspect ratio.
	rx := float64(w) * (0.28 + float64(0.08*math.Sin(2*math.Pi*t)))
	ry := float64(h) * (0.34 + float64(0.06*math.Cos(2*math.Pi*t)))
	fillEllipse(img, cx, cy, rx, ry, skinR, skinG, skinB)

	// Eyes: spacing and height encode identity.
	eyeDX := float64(rx * (0.4 + float64(0.15*math.Sin(4*math.Pi*t))))
	eyeY := cy - float64(ry*0.25)
	eyeR := math.Max(0.8, float64(min(h, w))*0.05)
	fillDisc(img, cx-eyeDX, eyeY, eyeR, 0.05, 0.05, 0.1)
	fillDisc(img, cx+eyeDX, eyeY, eyeR, 0.05, 0.05, 0.1)

	// Mouth: width and vertical position encode identity.
	mouthW := rx * (0.5 + float64(0.3*math.Cos(6*math.Pi*t)))
	mouthY := cy + float64(ry*0.45)
	fillRect(img, cx-float64(mouthW/2), mouthY-0.7, cx+float64(mouthW/2), mouthY+0.7, 0.55, 0.1, 0.15)

	// Hairline: identity-colored band across the top of the face.
	hr, hg, hb := palette(id, ids)
	fillEllipseBand(img, cx, cy-float64(ry*0.75), rx*0.95, ry*0.45, hr*0.5, hg*0.5, hb*0.5)
}

// fillDisc paints a filled circle with soft edges.
func fillDisc(img *tensor.Tensor, cx, cy, rad, cr, cg, cb float64) {
	h, w := img.Shape[1], img.Shape[2]
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := math.Hypot(float64(x)-cx, float64(y)-cy)
			if d <= rad {
				a := 1.0
				if d > rad-1 {
					a = rad - d // 1-pixel soft edge
				}
				setPx(img, y, x, cr, cg, cb, clampA(a))
			}
		}
	}
}

// fillEllipse paints a filled axis-aligned ellipse.
func fillEllipse(img *tensor.Tensor, cx, cy, rx, ry, cr, cg, cb float64) {
	h, w := img.Shape[1], img.Shape[2]
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx := (float64(x) - cx) / rx
			dy := (float64(y) - cy) / ry
			d := float64(dx*dx) + float64(dy*dy)
			if d <= 1 {
				setPx(img, y, x, cr, cg, cb, 1)
			}
		}
	}
}

// fillEllipseBand paints only the upper half of an ellipse (a hairline).
func fillEllipseBand(img *tensor.Tensor, cx, cy, rx, ry, cr, cg, cb float64) {
	h, w := img.Shape[1], img.Shape[2]
	for y := 0; y < h; y++ {
		if float64(y) > cy {
			continue
		}
		for x := 0; x < w; x++ {
			dx := (float64(x) - cx) / rx
			dy := (float64(y) - cy) / ry
			if float64(dx*dx)+float64(dy*dy) <= 1 {
				setPx(img, y, x, cr, cg, cb, 1)
			}
		}
	}
}

// fillRect paints a filled axis-aligned rectangle given float bounds.
func fillRect(img *tensor.Tensor, x0, y0, x1, y1, cr, cg, cb float64) {
	h, w := img.Shape[1], img.Shape[2]
	for y := 0; y < h; y++ {
		if float64(y) < y0 || float64(y) > y1 {
			continue
		}
		for x := 0; x < w; x++ {
			if float64(x) < x0 || float64(x) > x1 {
				continue
			}
			setPx(img, y, x, cr, cg, cb, 1)
		}
	}
}

func clampA(a float64) float64 {
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}
