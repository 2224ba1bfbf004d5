package tensor

import (
	"slices"
	"sync"
	"testing"
)

// TestGatherCacheConcurrentBuilds has eight goroutines ask one empty cache
// for the same and for different geometries at once (each worker walks the
// list from its own starting point). Every worker must get the table a
// fresh build computes, and all of them the one shared copy per geometry;
// warm lookups must not allocate. CI runs it under -race.
func TestGatherCacheConcurrentBuilds(t *testing.T) {
	geoms := []window{
		{h: 16, w: 16, kh: 2, kw: 2, stride: 2},
		{h: 8, w: 8, kh: 3, kw: 3, stride: 2, pad: 1},
		{h: 4, w: 4, kh: 3, kw: 3, stride: 1, pad: 1},
		{h: 8, w: 8, kh: 1, kw: 1, stride: 2},
		{h: 7, w: 5, kh: 5, kw: 5, stride: 3, pad: 2},
	}
	const workers = 8
	var (
		c     tableCache[window, gather]
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [workers][]gather
	)
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := range geoms {
				got[g] = append(got[g], c.get(geoms[(g+j)%len(geoms)]))
			}
		}()
	}
	close(start)
	wg.Wait()

	for g := range workers {
		for j, tab := range got[g] {
			geom := geoms[(g+j)%len(geoms)]
			want := geom.build()
			if tab.oh != want.oh || tab.ow != want.ow || !slices.Equal(tab.idx, want.idx) {
				t.Fatalf("worker %d got a table for %+v that differs from a fresh build", g, geom)
			}
			if shared := c.get(geom); &tab.idx[0] != &shared.idx[0] {
				t.Errorf("worker %d holds its own copy of the %+v table, not the shared one", g, geom)
			}
		}
	}
	if n := len(*c.tables.Load()); n != len(geoms) {
		t.Errorf("cache holds %d tables, want %d", n, len(geoms))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, g := range geoms {
			c.get(g)
		}
	}); allocs != 0 {
		t.Errorf("warm lookups allocate %v times, want 0", allocs)
	}
}
