// Command bench is the repository's one benchmark: six decks, three
// end-to-end metrics, and per-layer numbers timed from outside the
// program. BENCHMARK.json at the repository root is its contract and
// bench/README.md its manual.
//
//	go run ./bench                         every workload, both metric sets → bench/out/result.json
//	go run ./bench -workload a,b -reps 7   a subset, more reps
//	go run ./bench -check A.json B.json    compare two result files
//
// Driven by the contract in BENCHMARK.json it measures one workload and
// prints one JSON object as its last line:
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The harness drives the solver through the same public functions
// cmd/tealeaf calls, so set-up and solve can be timed apart. Each rep
// runs in a fresh child process (this binary re-executed with -child):
// set-up is paid cold, and the child's ru_maxrss is the rep's peak
// memory.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all)")
		seed    = flag.Int64("seed", 0, "deck seed: 0 = canonical decks, otherwise jitter pipe kinks, inlet and source by <= 5 %")
		seconds = flag.Float64("seconds", 12, "keep starting timed reps of a workload until this many seconds have passed")
		reps    = flag.Int("reps", 5, "minimum timed reps per workload")
		trace   = flag.Int("trace", -1, "0 = end-to-end metrics only, 1 = per-layer metrics only, -1 = both")
		out     = flag.String("out", filepath.Join("bench", "out"), "directory for result.json and trace-<workload>.json")
		doCheck = flag.Bool("check", false, "compare two result files given as arguments instead of measuring")
		child   = flag.Bool("child", false, "internal: run one rep in this process and print it as JSON")
		traced  = flag.Bool("traced", false, "internal: with -child, trace the rep")
	)
	flag.Parse()
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(maxThreads)
	}

	if *doCheck {
		return runCheck(flag.Args())
	}
	var selected []workload
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		selected = workloads
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	if *child {
		rep, err := runRep(selected[0], repConfig{Seed: *seed, Traced: *traced, OutDir: *out})
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}

	opts := runOpts{
		Seed: *seed, Seconds: *seconds, MinReps: *reps, OutDir: *out,
		Layers: *trace != 0, rep: childRep,
	}
	if *trace == 1 {
		// The untraced reps only anchor trace.overhead here.
		opts.Seconds, opts.MinReps = 0, 2
	}
	var results []workloadResult
	for _, w := range selected {
		fmt.Fprintf(os.Stderr, "bench: %s\n", w.Name)
		results = append(results, runWorkload(w, opts))
	}
	crossCheck(results)
	rf := newResultFile(opts, results)
	rf.print(os.Stdout)
	if err := writeJSON(filepath.Join(*out, "result.json"), rf); err != nil {
		return err
	}

	if len(results) == 1 && *trace >= 0 {
		printContractLine(results[0], *trace)
	} else {
		fmt.Println(`{"claim": null}`)
	}
	if n := rf.failed(); n > 0 {
		return fmt.Errorf("%d operations failed a correctness check", n)
	}
	return nil
}

// childRep runs one rep in a fresh process: this binary with -child.
func childRep(w workload, cfg repConfig) (repResult, error) {
	var rep repResult
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.Name,
		"-seed", strconv.FormatInt(cfg.Seed, 10), "-traced="+strconv.FormatBool(cfg.Traced), "-out", cfg.OutDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("rep of %s: %w", w.Name, err)
	}
	// The rep's result is the last line: anything the program under test
	// may print before it is not ours to parse.
	stdout = bytes.TrimSpace(stdout)
	stdout = stdout[bytes.LastIndexByte(stdout, '\n')+1:]
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return rep, fmt.Errorf("rep of %s: reading its result: %w", w.Name, err)
	}
	return rep, nil
}

// printContractLine prints the one-object result line BENCHMARK.json's
// driver reads: the end-to-end metrics with -trace 0, the per-layer
// ones with -trace 1.
func printContractLine(r workloadResult, trace int) {
	metrics := map[string]value{}
	if trace == 0 {
		for name, s := range r.EndToEnd {
			metrics[name] = value{Value: s.Value, Unit: s.Unit}
		}
	} else {
		metrics = r.PerLayer
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.OpsFailed == 0,
		"attempted": r.OpsAttempted,
		"failed":    r.OpsFailed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
}

func runCheck(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-check needs two result files")
	}
	var files [2]resultFile
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if files[0].Seed != files[1].Seed {
		fmt.Printf("note: seeds differ (%d vs %d): exact counts are only expected to match on one seed\n", files[0].Seed, files[1].Seed)
	}
	if !check(os.Stdout, files[0], files[1]) {
		return errors.New("the two results disagree")
	}
	fmt.Println("the two results agree")
	return nil
}
