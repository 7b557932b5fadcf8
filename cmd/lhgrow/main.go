// Command lhgrow runs the incremental LHG maintenance procedures (the
// constructive proofs of Theorems 2 and 5) as a control plane: starting
// from the minimal (2k,k) overlay it admits and removes nodes one at a
// time and emits the exact link operations a deployment would execute, as
// JSON lines.
//
// Usage:
//
//	lhgrow -constraint kdiamond -k 4 -joins 20             # one JSON line per join
//	lhgrow -constraint ktree -k 3 -joins 12 -leaves 4      # grow, then shrink
//	lhgrow -constraint ktree -k 3 -trace jjljlljj          # interleaved churn
//	lhgrow -constraint ktree -k 3 -joins 100 -summary      # aggregate churn stats
//
// Each JSON line has the shape
//
//	{"op":"join","n":9,"added":[[0,8],[1,8],[2,8]],"removed":[],"regular":false}
//
// where op is the membership event, n is the size after the event and
// added/removed list the link surgery (pairs of stable node ids). Leaves
// are exact inverse surgery: replaying a join-only run backwards yields the
// same deltas with added and removed swapped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"lhg"
	"lhg/internal/core"
	"lhg/internal/obs"
)

type opRecord struct {
	Op      string   `json:"op"`
	N       int      `json:"n"`
	Added   [][2]int `json:"added"`
	Removed [][2]int `json:"removed"`
	Regular bool     `json:"regular"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lhgrow:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lhgrow", flag.ContinueOnError)
	var (
		constraint = fs.String("constraint", "kdiamond", "grower: ktree or kdiamond")
		k          = fs.Int("k", 3, "connectivity target")
		joins      = fs.Int("joins", 10, "number of joins to perform (before any -leaves)")
		leaves     = fs.Int("leaves", 0, "number of leaves to perform after the joins")
		trace      = fs.String("trace", "", "explicit churn trace: one 'j' (join) or 'l' (leave) per event; overrides -joins/-leaves")
		summary    = fs.Bool("summary", false, "print aggregate churn stats instead of JSON lines")
		metrics    = fs.Bool("metrics", false, "dump the JSON metrics report to stderr at exit")
		httpAddr   = fs.String("http", "", "serve /debug/vars, /metrics and /debug/pprof/ on this address for the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopObs, err := obs.StartCLI(*metrics, *httpAddr, os.Stderr)
	if err != nil {
		return err
	}
	defer stopObs()
	ops, err := churnTrace(fs, *trace, *joins, *leaves)
	if err != nil {
		return err
	}

	var gr *core.Grower
	switch *constraint {
	case "ktree":
		gr, err = lhg.NewKTreeGrowerAt(*k, 2*(*k))
	case "kdiamond":
		gr, err = lhg.NewKDiamondGrowerAt(*k, 2*(*k))
	default:
		return fmt.Errorf("unknown grower %q (want ktree or kdiamond)", *constraint)
	}
	if err != nil {
		return err
	}

	enc := json.NewEncoder(out)
	var stats churnStats
	for i, op := range ops {
		var d lhg.EdgeDelta
		var name string
		switch op {
		case lhg.ChangeJoin:
			name = "join"
			d, err = gr.Grow()
		case lhg.ChangeLeave:
			name = "leave"
			d, err = gr.Shrink()
		}
		if err != nil {
			return fmt.Errorf("event %d (%s): %w", i, name, err)
		}
		stats.record(d)
		if *summary {
			continue
		}
		rec := opRecord{
			Op:      name,
			N:       gr.N(),
			Added:   pairs(d.Added),
			Removed: pairs(d.Removed),
			Regular: gr.Graph().IsRegular(*k),
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if *summary {
		stats.print(out, *constraint, *k, ops, gr)
	}
	return nil
}

// churnTrace resolves the flag surface into an explicit op sequence: an
// explicit -trace wins; otherwise -joins joins followed by -leaves leaves.
func churnTrace(fs *flag.FlagSet, trace string, joins, leaves int) ([]lhg.Change, error) {
	if trace != "" {
		set := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "joins" || f.Name == "leaves" {
				set = true
			}
		})
		if set {
			return nil, fmt.Errorf("-trace replaces -joins/-leaves; give one or the other")
		}
		ops := make([]lhg.Change, 0, len(trace))
		for _, c := range trace {
			switch c {
			case 'j':
				ops = append(ops, lhg.ChangeJoin)
			case 'l':
				ops = append(ops, lhg.ChangeLeave)
			default:
				return nil, fmt.Errorf("trace event %q: want 'j' or 'l'", c)
			}
		}
		return ops, nil
	}
	if joins < 0 {
		return nil, fmt.Errorf("joins must be non-negative, got %d", joins)
	}
	if leaves < 0 {
		return nil, fmt.Errorf("leaves must be non-negative, got %d", leaves)
	}
	ops := make([]lhg.Change, 0, joins+leaves)
	for i := 0; i < joins; i++ {
		ops = append(ops, lhg.ChangeJoin)
	}
	for i := 0; i < leaves; i++ {
		ops = append(ops, lhg.ChangeLeave)
	}
	return ops, nil
}

// churnStats aggregates link surgery with setup and teardown counted
// separately — a leave's churn is almost all removals, and folding both
// into one figure (as -summary once did) hides that asymmetry.
type churnStats struct {
	added, removed int
	maxChurn       int
}

func (s *churnStats) record(d lhg.EdgeDelta) {
	s.added += len(d.Added)
	s.removed += len(d.Removed)
	if churn := d.Total(); churn > s.maxChurn {
		s.maxChurn = churn
	}
}

func (s *churnStats) print(out io.Writer, constraint string, k int, ops []lhg.Change, gr *core.Grower) {
	joins, leaves := 0, 0
	for _, op := range ops {
		if op == lhg.ChangeJoin {
			joins++
		} else {
			leaves++
		}
	}
	mean := 0.0
	if len(ops) > 0 {
		mean = float64(s.added+s.removed) / float64(len(ops))
	}
	fmt.Fprintf(out, "constraint: %s\nk: %d\njoins: %d\nleaves: %d\nfinal n: %d\nfinal edges: %d\nlinks added: %d\nlinks removed: %d\nmean churn: %.2f\nmax churn: %d\n",
		constraint, k, joins, leaves, gr.N(), gr.Graph().Size(), s.added, s.removed, mean, s.maxChurn)
}

func pairs(es []lhg.Edge) [][2]int {
	out := make([][2]int, 0, len(es))
	for _, e := range es {
		out = append(out, [2]int{e.U, e.V})
	}
	return out
}
