// Command bench is the repository's benchmark: it measures the two paths
// a user waits on — a publication crossing real sockets and a
// reconfiguration being planned — end to end in an untraced pass and
// layer by layer in a traced pass. README.md is the manual;
// ../BENCHMARK.json declares the workloads, metrics and bounds.
//
//	go run -C bench .                          every workload, both passes
//	go run -C bench . -workload wire_chain3    one workload, both passes
//	go run -C bench . -repeat 5 -out .out/a.json
//	go run -C bench . -compare .out/a.json .out/b.json
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1
//
// The last form is the driver's: one pass in this process, its result as
// one JSON object on the last line of standard output.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order they run.
var workloadNames = []string{"wire_chain3", "wire_fanout16", "plan_paper8k", "alloc_scale20k"}

// outDir receives everything the benchmark writes, relative to the
// benchmark's directory (where go run -C leaves the process).
const outDir = ".out"

// childDeadline bounds one pass run as a child process, under the 180 s
// the driver allows a run.
const childDeadline = 170 * time.Second

// detailPrefix starts the line a pass prints its full result on, for the
// parent process that merges the passes.
const detailPrefix = "detail "

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed of every generator")
	seconds := fs.Float64("seconds", 0, "measuring time of one pass (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "run one pass in this process: 0 untraced (end-to-end metrics), 1 traced (per-layer metrics)")
	repeat := fs.Int("repeat", 1, "run everything this many times and print median, quartiles and spread per metric")
	compare := fs.Bool("compare", false, "compare two result documents (arguments: A.json B.json) under the bounds of BENCHMARK.json")
	out := fs.String("out", "", "write the result document to this file instead of standard output")
	traceOut := fs.String("trace-out", "", "write the traced passes' spans to this file")
	declPath := fs.String("benchmark-json", "", "path of BENCHMARK.json (default: ../BENCHMARK.json, then ./BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	decl, err := loadDeclaration(*declPath)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result documents"))
		}
		worse, err := compareDocuments(stdout, decl, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			return fail(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", ")))
		}
		names = []string{*workload}
	}

	if *trace >= 0 {
		if *workload == "" {
			return fail(fmt.Errorf("-trace needs -workload"))
		}
		res, err := runPass(*workload, *seed, *seconds, *trace == 1, *traceOut)
		if err != nil {
			return fail(err)
		}
		res.printHuman(stdout)
		detail, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		line, err := res.contractLine()
		if err != nil {
			return fail(err)
		}
		// The driver reads correctness from the object; the exit code
		// says only that a result was produced.
		fmt.Fprintf(stdout, "%s%s\n%s\n", detailPrefix, detail, line)
		return 0
	}

	doc := &document{Env: environment(), Seed: *seed, Seconds: *seconds}
	var spans []span
	for i := 0; i < *repeat; i++ {
		var runDoc runDocument
		for _, name := range names {
			wd, sp, err := runWorkload(name, *seed, *seconds, *traceOut != "", stderr)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", name, err))
			}
			runDoc.Workloads = append(runDoc.Workloads, wd)
			spans = append(spans, sp...)
		}
		doc.Runs = append(doc.Runs, runDoc)
	}
	if *repeat > 1 {
		doc.Summary = summarize(doc, decl)
		printSummary(stderr, doc.Summary)
	}
	if err := writeJSON(*out, stdout, doc); err != nil {
		return fail(err)
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, nil, spans); err != nil {
			return fail(err)
		}
	}
	for _, r := range doc.Runs {
		for _, w := range r.Workloads {
			if !w.Correct {
				fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed\n", w.Name, w.Failed, w.Attempted)
				return 1
			}
		}
	}
	return 0
}

// runPass runs one pass of one workload in this process.
func runPass(workload string, seed int64, seconds float64, traced bool, traceOut string) (*result, error) {
	p := newPass(workload, seed, traced)
	var err error
	switch workload {
	case "plan_paper8k":
		err = runPaper(p, paper8k, seconds)
	case "alloc_scale20k":
		err = runScale(p, scale20k, seconds, outDir)
	default:
		err = runWire(p, wireSpecs[workload], seconds)
	}
	end := p.now()
	p.cal.finish()
	if err != nil {
		return nil, err
	}
	if traced {
		p.res.set("bench.host_speed", p.cal.speedOver(0, end))
	}
	p.res.finish()
	if err := p.tr.write(traceOut); err != nil {
		return nil, err
	}
	return p.res, nil
}

// environmentDoc describes where the numbers were taken.
type environmentDoc struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment() environmentDoc {
	env := environmentDoc{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Outside a git checkout (the driver's, for one) this fails and the
	// commit stays unknown.
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// document is the result document of one invocation.
type document struct {
	Env     environmentDoc `json:"env"`
	Seed    int64          `json:"seed"`
	Seconds float64        `json:"seconds"`
	Runs    []runDocument  `json:"runs"`
	// Summary is present with -repeat above 1.
	Summary []summaryRow `json:"summary,omitempty"`
}

type runDocument struct {
	Workloads []workloadDocument `json:"workloads"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadDocument merges the two passes of one workload.
type workloadDocument struct {
	Name      string                 `json:"name"`
	Seed      int64                  `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	// Raw holds the un-normalised readings of the end-to-end metrics.
	Raw     map[string]float64 `json:"raw,omitempty"`
	Samples map[string]int     `json:"samples,omitempty"`
	Digest  string             `json:"digest,omitempty"`
	Invalid []string           `json:"invalid_phases,omitempty"`
	Notes   []string           `json:"notes,omitempty"`
}

// runWorkload runs both passes of a workload, each as a child process so
// that peak memory and CPU time are the pass's own, and merges them.
func runWorkload(name string, seed int64, seconds float64, wantSpans bool, progress io.Writer) (workloadDocument, []span, error) {
	wd := workloadDocument{
		Name: name, Seed: seed, Correct: true,
		EndToEnd: make(map[string]metricValue), PerLayer: make(map[string]metricValue),
		Samples: make(map[string]int),
	}
	var spans []span
	var digests [2]string
	for traced := 0; traced <= 1; traced++ {
		spanFile := ""
		if traced == 1 && wantSpans {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return wd, nil, err
			}
			spanFile = filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", name, os.Getpid()))
		}
		fmt.Fprintf(progress, "bench: %s seed %d trace %d ...\n", name, seed, traced)
		res, err := runChild(name, seed, seconds, traced, spanFile)
		if err != nil {
			return wd, nil, err
		}
		wd.Attempted += res.Attempted
		wd.Failed += res.Failed
		wd.Notes = append(wd.Notes, res.Notes...)
		wd.Invalid = append(wd.Invalid, res.Invalid...)
		for k, v := range res.Samples {
			wd.Samples[k] = v
		}
		digests[traced] = res.Digest
		into := wd.EndToEnd
		if traced == 1 {
			into = wd.PerLayer
		} else {
			wd.Raw = res.Raw
		}
		for _, m := range res.catalogue() {
			into[m.name] = metricValue{Value: res.Values[m.name], Unit: m.unit}
		}
		if spanFile != "" {
			data, err := os.ReadFile(spanFile)
			if err != nil {
				return wd, nil, fmt.Errorf("read spans: %w", err)
			}
			if err := json.Unmarshal(data, &spans); err != nil {
				return wd, nil, fmt.Errorf("decode spans: %w", err)
			}
			if err := os.Remove(spanFile); err != nil {
				return wd, nil, err
			}
		}
	}
	wd.Digest = digests[0]
	if digests[0] != digests[1] {
		wd.Attempted++
		wd.Failed++
		wd.Notes = append(wd.Notes, fmt.Sprintf("the traced pass produced digest %s, the untraced pass %s", digests[1], digests[0]))
	}
	wd.Correct = wd.Failed == 0
	return wd, spans, nil
}

// runChild re-executes this binary for one pass and reads its result back.
func runChild(name string, seed int64, seconds float64, traced int, spanFile string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate the benchmark binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced)}
	if spanFile != "" {
		args = append(args, "-trace-out", spanFile)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("trace %d pass exceeded its %v deadline", traced, childDeadline)
		}
		return nil, fmt.Errorf("trace %d pass: %w", traced, err)
	}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			res := &result{}
			if err := json.Unmarshal([]byte(line), res); err != nil {
				return nil, fmt.Errorf("trace %d pass: decode result: %w", traced, err)
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("trace %d pass printed no result", traced)
}

// writeJSON writes v indented to path, or to fallback when path is empty.
func writeJSON(path string, fallback io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	data = append(data, '\n')
	if path == "" {
		_, err = fallback.Write(data)
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
