package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"iotrace"
)

// cellJSON is a cell exactly as iosimd serves it: the marshaled
// ResultView.
func cellJSON(name string, key iotrace.ScenarioKey, r *iotrace.Result) ([]byte, error) {
	return json.Marshal(iotrace.NewResultView(name, key, r))
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cellHash is one cell's oracle line: the sha256 of its served JSON.
type cellHash struct {
	hash, name string
}

// readOracle reads an oracle file: one "<sha256>  <scenario>" line per
// cell, in grid order.
func readOracle(path string) ([]cellHash, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	defer f.Close()
	var out []cellHash
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		h, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			return nil, fmt.Errorf("oracle %s: malformed line %q", path, sc.Text())
		}
		out = append(out, cellHash{h, name})
	}
	return out, sc.Err()
}

// writeOracle records the cells' hashes as the new oracle.
func writeOracle(path string, cells []cellHash) error {
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%s  %s\n", c.hash, c.name)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// checkOracle compares a unit's cell hashes against want and counts each
// differing cell as a failed operation.
func checkOracle(o *outcome, got, want []cellHash) {
	if len(got) != len(want) {
		o.fail("oracle: %d cells, want %d", len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			o.fail("oracle: cell %d %q hashes %q, want %q %q", i, got[i].name, shortHash(got[i].hash), want[i].name, shortHash(want[i].hash))
		}
	}
}

// shortHash abbreviates a hash for a message; a failed cell has none.
func shortHash(h string) string {
	return h[:min(len(h), 12)]
}
