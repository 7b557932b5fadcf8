package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from golden %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestSweepVerifyGoldenByteStable enforces the -verify CSV contract: the
// kappa/lambda columns are byte-identical across -workers settings, and
// the whole CSV matches the checked-in golden.
func TestSweepVerifyGoldenByteStable(t *testing.T) {
	base := []string{"-k", "3", "-from", "10", "-to", "20", "-step", "5",
		"-families", "harary,kdiamond", "-verify"}
	var ref []byte
	for _, workers := range []string{"1", "4"} {
		args := append(append([]string{}, base...), "-workers", workers)
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = append([]byte(nil), buf.Bytes()...)
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("-workers %s changed the bytes:\n%s\nvs\n%s", workers, buf.Bytes(), ref)
		}
	}
	checkGolden(t, "sweep-verify.golden", ref)
}

// TestSweepVerifyHeader pins the column layout documented in the package
// comment: -verify inserts kappa,lambda before the optional gap column.
func TestSweepVerifyHeader(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-k", "3", "-from", "10", "-to", "10", "-step", "5",
		"-families", "kdiamond", "-verify", "-spectral"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	want := []string{"family", "n", "k", "edges", "diameter", "rounds", "messages", "moore", "kappa", "lambda", "gap"}
	if len(rows[0]) != len(want) {
		t.Fatalf("header = %v, want %v", rows[0], want)
	}
	for i := range want {
		if rows[0][i] != want[i] {
			t.Fatalf("header[%d] = %q, want %q", i, rows[0][i], want[i])
		}
	}
	// kappa = lambda = 3 for a valid K-DIAMOND instance.
	if rows[1][8] != "3" || rows[1][9] != "3" {
		t.Fatalf("kappa/lambda = %s/%s, want 3/3", rows[1][8], rows[1][9])
	}
}
