package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E1", "E4", "E9", "E14"} {
		if !strings.Contains(out, id+" ") {
			t.Fatalf("list output missing %s:\n%s", id, out)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-only", "E99"}, &buf); err == nil {
		t.Fatal("unknown id must error")
	}
}

// TestEveryExperimentRuns executes each experiment individually; the
// experiment functions return errors whenever a measured value contradicts
// the paper claim, so this is the top-level reproduction test.
func TestEveryExperimentRuns(t *testing.T) {
	for _, e := range experimentTable() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-only", e.ID}, &buf); err != nil {
				t.Fatalf("%s failed: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			if !strings.Contains(buf.String(), "== "+e.ID+":") {
				t.Fatalf("%s produced no header:\n%s", e.ID, buf.String())
			}
		})
	}
}

// TestE10ShapeHolds rechecks the headline quantitative shape on the
// experiment output: Harary's diameter column must grow at least 8x from
// n=16 to n=512 while K-DIAMOND's stays below 4x.
func TestE10ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-only", "E10"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "512") {
		t.Fatalf("E10 table truncated:\n%s", out)
	}
}

func TestWriteFigures(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-figures", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 16 { // 8 DOT + 8 SVG
		t.Fatalf("wrote %d figure files, want 16", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2b_ktree_9_3.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `label="R0"`) {
		t.Fatalf("figure misses blueprint labels:\n%s", data)
	}
}

// TestTranscriptMatchesGolden runs every experiment in one process, as
// `go run ./cmd/experiments` does, and holds the output to the checked-in
// transcript byte for byte. Every experiment is seeded and prints no
// timing, so the transcript changes only when a reported value does;
// regenerate it with `go run ./cmd/experiments > docs/experiments_output.txt`
// and review the diff.
func TestTranscriptMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(nil, &buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("transcript differs from docs/experiments_output.txt at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
