package main

import (
	"bufio"
	"context"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ensembler/internal/telemetry"
)

// readmeTable returns the rows of the README table whose header row starts
// with header, as cells with backticks and padding stripped.
func readmeTable(t *testing.T, readme, header string) [][]string {
	t.Helper()
	var rows [][]string
	in := false
	sc := bufio.NewScanner(strings.NewReader(readme))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case !in && strings.HasPrefix(line, header):
			in = true
		case in && strings.HasPrefix(line, "|-"): // the separator row
		case in && strings.HasPrefix(line, "|"):
			var cells []string
			for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
				cells = append(cells, strings.Trim(strings.TrimSpace(c), "`"))
			}
			rows = append(rows, cells)
		case in:
			return rows
		}
	}
	if !in {
		t.Fatalf("README has no table headed %q", header)
	}
	return rows
}

// routeCovers reports whether a README endpoint cell names a mux pattern:
// the cell up to its first "{" or "…" is the pattern itself, or a subtree
// ("/traces/{id}", "/debug/pprof/…") the pattern lies in.
func routeCovers(cell, pattern string) bool {
	if i := strings.IndexAny(cell, "{…"); i >= 0 {
		cell = cell[:i]
	}
	return cell == pattern || strings.HasSuffix(cell, "/") && strings.HasPrefix(pattern, cell)
}

// TestReadmeCataloguesAdminSurface holds README's operating section to the
// serve binary. A server with every admin surface on (admin plane, privacy
// budget, a version with a recorded leakage score) is scraped: every
// ensembler_* family it exports is in the metrics table with its type, and
// every family the table names is exported. Every admin route, the profiler
// included, is in the endpoint table, and every endpoint there is routed.
func TestReadmeCataloguesAdminSurface(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)

	dir, _, leak := publishScored(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc, done := runAsync(ctx, t, []string{
		"-model-dir", dir, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		"-privacy-budget-rows", "64",
	})
	scrapeAddr(t, sc, done)
	admin := "http://" + scrapeAdminAddr(t, sc, done)
	go func() {
		for sc.Scan() {
		}
	}()
	code, body := adminGet(t, admin+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown: %v", err)
	}

	exported := map[string]string{} // family → type
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && strings.HasPrefix(f[2], "ensembler_") {
			exported[f[2]] = f[3]
		}
		if len(f) == 2 && f[0] == "ensembler_audit_leakage" {
			if v, err := strconv.ParseFloat(f[1], 64); err != nil || v != leak.SSIM {
				t.Errorf("ensembler_audit_leakage %s, want the recorded SSIM %v", f[1], leak.SSIM)
			}
		}
	}
	documented := map[string]string{}
	for _, row := range readmeTable(t, readme, "| metric ") {
		if len(row) < 2 {
			t.Fatalf("metrics table row %v has no type column", row)
		}
		documented[row[0]] = row[1]
	}
	var missing, stale []string
	for name, typ := range exported {
		if doc, ok := documented[name]; !ok {
			missing = append(missing, name)
		} else if doc != typ {
			t.Errorf("README lists %s as a %s; /metrics exports a %s", name, doc, typ)
		}
	}
	for name := range documented {
		if _, ok := exported[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("exported but missing from README's metrics table: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("named in README's metrics table but not exported: %v", stale)
	}

	endpoints := readmeTable(t, readme, "| endpoint ")
	routes := (&adminPlane{treg: telemetry.NewRegistry(), pprof: true}).routes()
	for pattern := range routes {
		found := false
		for _, row := range endpoints {
			found = found || routeCovers(row[0], pattern)
		}
		if !found {
			t.Errorf("admin route %s is missing from README's endpoint table", pattern)
		}
	}
	for _, row := range endpoints {
		found := false
		for pattern := range routes {
			found = found || routeCovers(row[0], pattern)
		}
		if !found {
			t.Errorf("README endpoint %s is not routed by the admin plane", row[0])
		}
	}
}
