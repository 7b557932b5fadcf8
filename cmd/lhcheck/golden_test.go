package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// denseJSON renders the dense stdin fixture: a 64-node circulant (±1, ±2
// ring, so δ = 4) plus a clique on the first 32 nodes, pushing m past
// SparsifyCutoff·k·n while keeping κ = λ = 4. Its golden output predates
// the removal of the sparse-certificate path that such inputs once took,
// so it pins that the κ/λ sweeps on the full graph report the same.
func denseJSON() string {
	const n, core = 64, 32
	seen := map[[2]int]bool{}
	var edges [][2]int
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
		add(i, (i+2)%n)
	}
	for u := 0; u < core; u++ {
		for v := u + 1; v < core; v++ {
			add(u, v)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"nodes":%d,"edges":[`, n)
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", e[0], e[1])
	}
	b.WriteString("]}")
	return b.String()
}

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

// TestJSONGoldenByteStable enforces the -json contract: the same graph
// yields the same bytes regardless of -workers, and those bytes match the
// checked-in golden. The dense stdin case triggers the certificate fast
// path; the built case stays on the classic path. (That the fast path
// itself changes no value is the check package's fuzz differential.)
func TestJSONGoldenByteStable(t *testing.T) {
	cases := []struct {
		name, golden string
		args         []string
		in           string
		wantErr      error
	}{
		{
			name:   "built-kdiamond",
			golden: "json-kdiamond-14-3.golden",
			args:   []string{"-constraint", "kdiamond", "-n", "14", "-k", "3", "-json"},
		},
		{
			name:    "dense-stdin",
			golden:  "json-dense.golden",
			args:    []string{"-stdin", "-k", "4", "-json"},
			in:      denseJSON(),
			wantErr: errNotLHG, // clique edges are removable: P3 fails
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, workers := range []string{"1", "4"} {
				args := append(append([]string{}, tc.args...), "-workers", workers)
				var buf bytes.Buffer
				err := run(args, strings.NewReader(tc.in), &buf)
				if tc.wantErr == nil && err != nil {
					t.Fatal(err)
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if ref == nil {
					ref = append([]byte(nil), buf.Bytes()...)
				} else if !bytes.Equal(ref, buf.Bytes()) {
					t.Fatalf("-workers %s changed the bytes:\n%s\nvs\n%s", workers, buf.Bytes(), ref)
				}
			}
			checkGolden(t, tc.golden, ref)
		})
	}
}
