package data

import (
	"fmt"
	"io"
	"os"

	"ensembler/internal/tensor"
)

// EncodePPM writes an image tensor [3,H,W] (values clamped to [0,1]) as a
// binary PPM (P6) stream — the simplest way to eyeball attack
// reconstructions without imaging dependencies.
func EncodePPM(w io.Writer, img *tensor.Tensor) error {
	if len(img.Shape) != 3 || img.Shape[0] != 3 {
		return fmt.Errorf("data: EncodePPM expects [3,H,W], got %v", img.Shape)
	}
	h, wd := img.Shape[1], img.Shape[2]
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", wd, h); err != nil {
		return err
	}
	buf := make([]byte, 0, 3*h*wd)
	for y := 0; y < h; y++ {
		for x := 0; x < wd; x++ {
			for c := 0; c < 3; c++ {
				v := img.At(c, y, x)
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				buf = append(buf, byte(float64(v*255)+0.5))
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

// SavePPM writes an image tensor to a .ppm file.
func SavePPM(path string, img *tensor.Tensor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := EncodePPM(f, img); err != nil {
		return err
	}
	return f.Close()
}

// SaveGrid writes a batch [N,3,H,W] as one PPM contact sheet with cols
// images per row — ground truth on top of reconstructions is the usual
// layout for attack inspection.
func SaveGrid(path string, batch *tensor.Tensor, cols int) error {
	if len(batch.Shape) != 4 || batch.Shape[1] != 3 {
		return fmt.Errorf("data: SaveGrid expects [N,3,H,W], got %v", batch.Shape)
	}
	n, h, w := batch.Shape[0], batch.Shape[2], batch.Shape[3]
	if cols <= 0 {
		cols = n
	}
	rows := (n + cols - 1) / cols
	grid := tensor.New(3, rows*h, cols*w)
	for i := 0; i < n; i++ {
		ry, rx := (i/cols)*h, (i%cols)*w
		img := batch.SampleView(i)
		for c := 0; c < 3; c++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					grid.Set(img.At(c, y, x), c, ry+y, rx+x)
				}
			}
		}
	}
	return SavePPM(path, grid)
}
