// Command benchmark measures the repository end to end and layer by layer.
//
// One invocation runs one workload (-workload) or all four (-all) at one
// -seed. With -trace 0 it runs the session script with harness tracing off
// and reports the end-to-end metrics; with -trace 1 it pushes the same
// inputs through successively taller stacks, records a span around each
// call, writes the spans to -out, and reports the per-layer metrics. The
// last line of standard output is one JSON object; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
	out     string
	tmp     string
}

// runWorkload runs one pass of one workload and prints its report to w.
func runWorkload(w io.Writer, wl workload, opt options, st stamp) (result, error) {
	if opt.tiny {
		wl = wl.tiny()
	}
	r := &run{in: newInputs(wl, opt.seed), seconds: opt.seconds, tmp: opt.tmp}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t  %s\n", wl.Name, opt.seed, opt.seconds, opt.trace, st)
	specs := endToEnd
	var values map[string]sample
	var err error
	if opt.trace {
		specs = perLayer
		r.tr = newTracer(wl.Name)
		values, err = r.ladder(w)
	} else {
		values, err = r.endToEnd()
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", wl.Name, err)
	}

	res := result{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	res.Correct = res.Failed == 0
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return result{}, fmt.Errorf("%s: metric %s was not measured", wl.Name, m.Name)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", m.Name, v.Value, m.Unit)
		if v.N > 1 {
			fmt.Fprintf(w, " q1 %.6g q3 %.6g n %d", v.Q1, v.Q3, v.N)
		}
		fmt.Fprintln(w)
		res.Metrics[m.Name] = metricValue{Value: v.Value, Unit: m.Unit}
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-6s (%d failed of %d attempted)\n", "failed_share",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.tr != nil {
		path, err := r.tr.write(opt.out, st, opt.seed)
		if err != nil {
			return result{}, fmt.Errorf("%s: write trace: %w", wl.Name, err)
		}
		fmt.Fprintf(w, "  %d spans written to %s\n", len(r.tr.spans), path)
	}
	return res, nil
}

func main() {
	var opt options
	name := flag.String("workload", "", "workload to run: train_narrow, train_mlp_batch, serve_predict or serve_mixed")
	all := flag.Bool("all", false, "run every workload, end to end and traced, and print both reports")
	aa := flag.Bool("aa", false, "run every workload end to end twice and fail if any metric differs by more than its bound")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced per-layer ladder")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the tool's tables define it, and exit")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "measuring time of one pass")
	flag.BoolVar(&opt.tiny, "tiny", false, "shrink every table 25x (for smoke tests; figures are not comparable)")
	flag.StringVar(&opt.out, "out", "out", "directory the traced pass writes trace-<workload>.json to")
	flag.StringVar(&opt.tmp, "tmp", ".bench_build/tmp", "directory for input files and WAL directories, removed after each pass")
	flag.Parse()
	opt.trace = *trace == 1
	if *spec {
		buf, err := specJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		os.Stdout.Write(buf)
		return
	}

	if err := mainErr(os.Stdout, *name, *all, *aa, opt); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(w io.Writer, name string, all, aa bool, opt options) error {
	if opt.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	st := readStamp()
	switch {
	case aa:
		return runAA(w, opt, st)
	case all:
		correct := true
		for _, wl := range workloads {
			for _, traced := range []bool{false, true} {
				o := opt
				o.trace = traced
				res, err := runWorkload(w, wl, o, st)
				if err != nil {
					return err
				}
				correct = correct && res.Correct
			}
		}
		if !correct {
			return errors.New("some operations failed; see FAILED lines above")
		}
		return nil
	}
	wl, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown -workload %q", name)
	}
	res, err := runWorkload(w, wl, opt, st)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAA runs the end-to-end pass of every workload twice on this build and
// reports every metric whose second figure is worse than the first by more
// than its bound. Metrics that are a pure function of the seed must agree
// exactly.
func runAA(w io.Writer, opt options, st stamp) error {
	opt.trace = false
	var bad []string
	for _, wl := range workloads {
		var passes [2]result
		for i := range passes {
			res, err := runWorkload(w, wl, opt, st)
			if err != nil {
				return err
			}
			if !res.Correct {
				bad = append(bad, fmt.Sprintf("%s pass %d: %d operations failed", wl.Name, i+1, res.Failed))
			}
			passes[i] = res
		}
		for _, m := range endToEnd {
			a, b := passes[0].Metrics[m.Name].Value, passes[1].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if (m.Exact && a != b) || worse > m.Bound {
				verdict = "DIFFERS"
				bad = append(bad, fmt.Sprintf("%s %s: %g then %g (bound %g)", wl.Name, m.Name, a, b, m.Bound))
			}
			fmt.Fprintf(w, "aa %-16s %-24s %14.6g %14.6g  worse by %+.4f  bound %.3f  %s\n", wl.Name, m.Name, a, b, worse, m.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(w, "aa FAIL:", b)
		}
		return fmt.Errorf("A/A check failed on %d metric(s)", len(bad))
	}
	fmt.Fprintf(w, "aa pass: every end-to-end metric within its bound on GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
	return nil
}
