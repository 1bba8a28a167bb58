package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheckOracleShortHashes feeds checkOracle the hashes a failed cell
// (none) and a truncated oracle line leave, and expects each mismatch to
// count as one failed operation rather than stop the run.
func TestCheckOracleShortHashes(t *testing.T) {
	full := sha256Hex([]byte("cell"))
	want := []cellHash{{full, "a"}, {full, "b"}, {"ab12", "c"}}
	got := []cellHash{{full, "a"}, {"", "b"}, {full, "c"}}
	o := &outcome{}
	checkOracle(o, got, want)
	if o.failed != 2 {
		t.Fatalf("failed %d, want 2: %v", o.failed, o.errs)
	}

	// A truncated oracle file reads back with its short hash, and the
	// same check reports it.
	path := filepath.Join(t.TempDir(), "oracle.sha256")
	if err := os.WriteFile(path, []byte(full+"  a\nab12  b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	read, err := readOracle(path)
	if err != nil {
		t.Fatal(err)
	}
	o = &outcome{}
	checkOracle(o, []cellHash{{full, "a"}, {full, "b"}}, read)
	if o.failed != 1 {
		t.Fatalf("truncated oracle: failed %d, want 1: %v", o.failed, o.errs)
	}
}
