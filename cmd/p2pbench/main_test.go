package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadBaseline: only a directory without the plan's baseline skips
// the gate; a corrupt file, read directly or found in a directory, and a
// path that does not exist are errors.
func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "BENCH_smoke.baseline.json")
	if err := os.WriteFile(corrupt, []byte(`{"plan": "smoke", "totals": {`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		path    string
		wantErr bool
	}{
		{"corrupt file", corrupt, true},
		{"directory with a corrupt plan file", dir, true},
		{"missing file path", filepath.Join(dir, "BENCH_smoke.baseline.jsn"), true},
		{"directory without the plan's file", t.TempDir(), false},
	}
	for _, tc := range cases {
		_, ok, err := loadBaseline(tc.path, "smoke")
		if ok || (err != nil) != tc.wantErr {
			t.Errorf("%s: ok %v, err %v; want ok false, error %v", tc.name, ok, err, tc.wantErr)
		}
	}
}
