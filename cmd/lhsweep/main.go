// Command lhsweep produces machine-readable CSV for the headline metrics
// across a size sweep, ready for plotting: edges, diameter, flooding
// rounds, message cost, the Moore diameter lower bound, and (optionally)
// the spectral gap of k-regular instances.
//
// Usage:
//
//	lhsweep -k 4 -from 16 -to 512 -step x2 > sweep.csv
//	lhsweep -k 3 -from 10 -to 100 -step 10 -spectral
//	lhsweep -k 4 -from 16 -to 4096 -step x2 -progress -metrics > sweep.csv
//
// Columns: family,n,k,edges,diameter,rounds,messages,moore[,kappa,lambda][,gap]
// (-verify adds the exact connectivity columns)
//
// Only the CSV goes to stdout; progress lines, the -metrics JSON dump and
// the -http endpoint announcement all go to stderr, so redirecting stdout
// always yields a clean, parseable file.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"lhg"
	"lhg/internal/check"
	"lhg/internal/obs"
	"lhg/internal/spectral"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lhsweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lhsweep", flag.ContinueOnError)
	var (
		k         = fs.Int("k", 4, "connectivity target")
		from      = fs.Int("from", 16, "smallest n")
		to        = fs.Int("to", 256, "largest n")
		step      = fs.String("step", "x2", "sweep step: a number (additive) or xN (multiplicative)")
		doGap     = fs.Bool("spectral", false, "include the spectral gap column (k-regular sizes only, slower)")
		verify    = fs.Bool("verify", false, "include exact kappa and lambda columns (max-flow verification per size, slower)")
		families  = fs.String("families", "harary,jd,ktree,kdiamond", "comma-separated constraint list")
		workers   = fs.Int("workers", 0, "goroutines for the diameter sweep (0 = all cores)")
		progress  = fs.Bool("progress", false, "report sweep progress on stderr")
		metrics   = fs.Bool("metrics", false, "dump the JSON metrics report to stderr at exit")
		httpAddr  = fs.String("http", "", "serve /debug/vars, /metrics and /debug/pprof/ on this address for the run")
		tracePath = fs.String("trace", "", "enable tracing and write the span flight recorder to this file (Chrome trace_event JSON) at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopObs, err := obs.StartCLI(*metrics, *httpAddr, os.Stderr)
	if err != nil {
		return err
	}
	defer stopObs()
	stopTrace := obs.StartTrace(*tracePath, os.Stderr)
	defer stopTrace()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *from < 2 || *to < *from {
		return fmt.Errorf("invalid range [%d,%d]", *from, *to)
	}
	next, err := stepper(*step)
	if err != nil {
		return err
	}
	constraints, err := parseFamilies(*families)
	if err != nil {
		return err
	}

	w := csv.NewWriter(out)
	header := []string{"family", "n", "k", "edges", "diameter", "rounds", "messages", "moore"}
	if *verify {
		header = append(header, "kappa", "lambda")
	}
	if *doGap {
		header = append(header, "gap")
	}
	if err := w.Write(header); err != nil {
		return err
	}
	var prog *obs.Progress
	if *progress {
		total := int64(0)
		for n := *from; n <= *to; n = next(n) {
			for _, c := range constraints {
				if lhg.Exists(c, n, *k) {
					total++
				}
			}
		}
		prog = obs.NewProgress(os.Stderr, "sweep", total)
	}
	for n := *from; n <= *to; n = next(n) {
		for _, c := range constraints {
			if !lhg.Exists(c, n, *k) {
				continue
			}
			g, err := lhg.Build(ctx, c, n, *k)
			if err != nil {
				return err
			}
			res, err := lhg.Flood(ctx, g, 0)
			if err != nil {
				return err
			}
			diam, _, err := g.DistanceStatsCtx(ctx, *workers)
			if err != nil {
				return err
			}
			row := []string{
				c.String(),
				strconv.Itoa(n),
				strconv.Itoa(*k),
				strconv.Itoa(g.Size()),
				strconv.Itoa(diam),
				strconv.Itoa(res.Rounds),
				strconv.Itoa(res.Messages),
				strconv.Itoa(check.MooreDiameterLowerBound(n, *k)),
			}
			if *verify {
				r, err := lhg.Verify(ctx, g, *k,
					lhg.WithWorkers(*workers),
					lhg.WithProperties(lhg.PropNodeConnectivity|lhg.PropLinkConnectivity))
				if err != nil {
					return err
				}
				row = append(row,
					strconv.Itoa(r.NodeConnectivity),
					strconv.Itoa(r.EdgeConnectivity))
			}
			if *doGap {
				cell := ""
				if g.IsRegular(*k) {
					gap, err := spectral.SpectralGap(g, spectral.Options{})
					if err != nil {
						return err
					}
					cell = strconv.FormatFloat(gap, 'f', 6, 64)
				}
				row = append(row, cell)
			}
			if err := w.Write(row); err != nil {
				return err
			}
			prog.Add(1)
		}
	}
	prog.Finish()
	w.Flush()
	return w.Error()
}

// stepper parses the -step flag into an increment function.
func stepper(s string) (func(int) int, error) {
	if len(s) > 1 && s[0] == 'x' {
		f, err := strconv.Atoi(s[1:])
		if err != nil || f < 2 {
			return nil, fmt.Errorf("bad multiplicative step %q", s)
		}
		return func(n int) int { return n * f }, nil
	}
	d, err := strconv.Atoi(s)
	if err != nil || d < 1 {
		return nil, fmt.Errorf("bad additive step %q", s)
	}
	return func(n int) int { return n + d }, nil
}

func parseFamilies(s string) ([]lhg.Constraint, error) {
	var out []lhg.Constraint
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			name := s[start:i]
			start = i + 1
			if name == "" {
				continue
			}
			c, err := lhg.ParseConstraint(name)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no families selected")
	}
	return out, nil
}
