// Command lhcheck builds a topology and verifies every Logarithmic Harary
// Graph property exactly (max-flow based): k-node connectivity, k-link
// connectivity, link minimality, logarithmic diameter and k-regularity.
// It can also check a graph supplied as JSON on stdin (the lhgen -format
// json encoding).
//
// Usage:
//
//	lhcheck -constraint ktree -n 21 -k 3
//	lhgen -constraint kdiamond -n 50 -k 4 -format json | lhcheck -stdin -k 4
//	lhcheck -constraint kdiamond -n 200 -k 4 -v -metrics
//
// -v prints the per-phase timing breakdown of the verification run;
// -metrics dumps the JSON metrics report to stderr at exit; -http serves
// /debug/vars, /metrics and /debug/pprof/ for the duration of the run;
// -trace out.json records every span of the run and writes a Chrome
// trace_event file at exit (load in chrome://tracing or Perfetto).
// The report goes to stdout, diagnostics to stderr.
//
// Exit status 0 means every mandatory property holds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"lhg"
	"lhg/internal/core"
	"lhg/internal/obs"
)

var errNotLHG = errors.New("graph is not an LHG")

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lhcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("lhcheck", flag.ContinueOnError)
	var (
		constraint = fs.String("constraint", "kdiamond", "topology: harary, jd, ktree or kdiamond")
		n          = fs.Int("n", 20, "number of nodes")
		k          = fs.Int("k", 3, "connectivity target")
		stdin      = fs.Bool("stdin", false, "read a JSON graph from stdin instead of building one")
		workers    = fs.Int("workers", 0, "verification worker goroutines (0 = all cores)")
		blueprint  = fs.Bool("blueprint", false, "read a blueprint JSON (lhgen -format blueprint) from stdin, validate its constraints, compile and verify")
		verbose    = fs.Bool("v", false, "print the per-phase timing breakdown of the verification run")
		metrics    = fs.Bool("metrics", false, "dump the JSON metrics report to stderr at exit")
		httpAddr   = fs.String("http", "", "serve /debug/vars, /metrics and /debug/pprof/ on this address for the run")
		jsonOut    = fs.Bool("json", false, "emit the report as one JSON object on stdout (byte-stable: same graph, same bytes, regardless of -workers)")
		tracePath  = fs.String("trace", "", "enable tracing and write the span flight recorder to this file (Chrome trace_event JSON) at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Interrupts cancel the verification campaign mid-probe instead of
	// killing the process between phases.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *verbose {
		// Verbose mode wants probe counts in the phase block, which come
		// from the metrics registry.
		obs.Enable()
	}
	stopObs, err := obs.StartCLI(*metrics, *httpAddr, os.Stderr)
	if err != nil {
		return err
	}
	defer stopObs()
	stopTrace := obs.StartTrace(*tracePath, os.Stderr)
	defer stopTrace()

	var g *lhg.Graph
	usedConstraint := ""
	switch {
	case *blueprint:
		var blue core.Blueprint
		if err := json.NewDecoder(in).Decode(&blue); err != nil {
			return fmt.Errorf("decode blueprint: %w", err)
		}
		if !*jsonOut {
			fmt.Fprintf(out, "blueprint:            k=%d, %d positions, height %d\n",
				blue.K, blue.Positions(), blue.Height())
			fmt.Fprintf(out, "satisfies K-TREE:     %s\n", constraintVerdict(core.ValidateKTree(&blue)))
			fmt.Fprintf(out, "satisfies K-DIAMOND:  %s\n", constraintVerdict(core.ValidateKDiamond(&blue)))
			fmt.Fprintf(out, "satisfies JD:         %s\n", constraintVerdict(core.ValidateJD(&blue)))
		}
		real, err := blue.Compile()
		if err != nil {
			return err
		}
		g = real.Graph
		*k = blue.K
	case *stdin:
		var decoded lhg.Graph
		if err := json.NewDecoder(in).Decode(&decoded); err != nil {
			return fmt.Errorf("decode graph: %w", err)
		}
		g = &decoded
	default:
		c, perr := lhg.ParseConstraint(*constraint)
		if perr != nil {
			return perr
		}
		g, err = lhg.Build(ctx, c, *n, *k)
		if err != nil {
			return err
		}
		usedConstraint = c.String()
	}

	r, err := lhg.Verify(ctx, g, *k, lhg.WithWorkers(*workers))
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := writeStableJSON(out, usedConstraint, r); err != nil {
			return err
		}
		if !r.IsLHG() {
			return errNotLHG
		}
		return nil
	}
	fmt.Fprintf(out, "nodes:                %d\n", r.N)
	fmt.Fprintf(out, "edges:                %d\n", r.M)
	fmt.Fprintf(out, "node connectivity:    %d (P1 %s)\n", r.NodeConnectivity, pass(r.KNodeConnected))
	fmt.Fprintf(out, "link connectivity:    %d (P2 %s)\n", r.EdgeConnectivity, pass(r.KLinkConnected))
	fmt.Fprintf(out, "link minimality:      P3 %s\n", pass(r.LinkMinimal))
	if e, bad := r.Violation(); bad {
		fmt.Fprintf(out, "  removable edge:     (%d,%d)\n", e.U, e.V)
	}
	fmt.Fprintf(out, "diameter:             %d (bound %d, P4 %s)\n", r.Diameter, r.DiameterBound, pass(r.LogDiameter))
	fmt.Fprintf(out, "k-regular:            %t (P5, optional)\n", r.Regular)
	fmt.Fprintf(out, "avg path length:      %.3f\n", r.AvgPathLen)
	if *verbose {
		fmt.Fprintln(out, "phase timings:")
		fmt.Fprint(out, r.PhaseBreakdown())
	}
	if !r.IsLHG() {
		return errNotLHG
	}
	fmt.Fprintln(out, "verdict:              LHG ✓")
	return nil
}

// stableReport is the -json output shape. It deliberately excludes every
// run-dependent field of lhg.Report — worker count, phase wall times,
// probe counts — so the bytes depend only on the graph and k: the same
// input yields the same output across -workers values, which the golden
// tests enforce.
type stableReport struct {
	Constraint    string  `json:"constraint,omitempty"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	K             int     `json:"k"`
	Kappa         int     `json:"kappa"`
	Lambda        int     `json:"lambda"`
	P1            bool    `json:"p1"`
	P2            bool    `json:"p2"`
	P3            bool    `json:"p3"`
	P4            bool    `json:"p4"`
	P5            bool    `json:"p5"`
	MinDegree     int     `json:"min_degree"`
	MaxDegree     int     `json:"max_degree"`
	Diameter      int     `json:"diameter"`
	DiameterBound int     `json:"diameter_bound"`
	AvgPathLen    float64 `json:"avg_path_len"`
	RemovableEdge *[2]int `json:"removable_edge,omitempty"`
	IsLHG         bool    `json:"is_lhg"`
}

// writeStableJSON emits the byte-stable report (one indented JSON object,
// trailing newline).
func writeStableJSON(out io.Writer, constraint string, r *lhg.Report) error {
	s := stableReport{
		Constraint: constraint,
		N:          r.N, M: r.M, K: r.K,
		Kappa: r.NodeConnectivity, Lambda: r.EdgeConnectivity,
		P1: r.KNodeConnected, P2: r.KLinkConnected, P3: r.LinkMinimal,
		P4: r.LogDiameter, P5: r.Regular,
		MinDegree: r.MinDegree, MaxDegree: r.MaxDegree,
		Diameter: r.Diameter, DiameterBound: r.DiameterBound,
		AvgPathLen: r.AvgPathLen,
		IsLHG:      r.IsLHG(),
	}
	if e, bad := r.Violation(); bad {
		s.RemovableEdge = &[2]int{e.U, e.V}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(&s)
}

// constraintVerdict renders a validator outcome.
func constraintVerdict(err error) string {
	if err == nil {
		return "yes"
	}
	return "no (" + err.Error() + ")"
}

func pass(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}
