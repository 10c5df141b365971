package main

import (
	"os"
	"path/filepath"
	"testing"

	"histanon/internal/sim"
)

// A record that cannot be written must surface as an error, so that
// -compbench exits 1 instead of printing its tables over a lost record.
func TestWriteRecordReportsWriteError(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "BENCH_comp.json"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := writeRecord(f, sim.CompBenchReport{K: 5}); err == nil {
		t.Fatal("writeRecord on a closed file returned nil")
	}
}
