package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// declaration is ../BENCHMARK.json: what the benchmark promises to
// report and how far each end-to-end metric may worsen.
type declaration struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadDeclaration reads BENCHMARK.json from path or, when path is empty,
// from the directory above the benchmark's or the current one.
func loadDeclaration(path string) (*declaration, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"../BENCHMARK.json", "BENCHMARK.json"}
	}
	var firstErr error
	for _, c := range candidates {
		data, err := os.ReadFile(c)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var d declaration
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return &d, nil
	}
	return nil, fmt.Errorf("read the benchmark declaration: %w", firstErr)
}

// summaryRow is one workload x metric over the runs of a document.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median, the figure the bounds are judged by.
	Spread float64 `json:"spread"`
	// Bound is the end-to-end metric's regression bound (0 for a
	// per-layer metric, which has none).
	Bound float64 `json:"bound,omitempty"`
}

// series collects each workload x metric's values over a document's runs,
// end-to-end metrics when endToEnd is set and per-layer ones otherwise.
func series(doc *document, endToEnd bool) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range doc.Runs {
		for _, w := range r.Workloads {
			metrics := w.PerLayer
			if endToEnd {
				metrics = w.EndToEnd
			}
			if out[w.Name] == nil {
				out[w.Name] = make(map[string][]float64)
			}
			for name, v := range metrics {
				out[w.Name][name] = append(out[w.Name][name], v.Value)
			}
		}
	}
	return out
}

// summarize computes median, quartiles and spread of every metric over
// the runs of doc, in catalogue order.
func summarize(doc *document, decl *declaration) []summaryRow {
	var rows []summaryRow
	for _, part := range []struct {
		endToEnd bool
		metrics  []declaredMetric
	}{{true, decl.EndToEnd}, {false, decl.PerLayer}} {
		all := series(doc, part.endToEnd)
		for _, w := range workloadNames {
			for _, m := range part.metrics {
				values := all[w][m.Name]
				if len(values) == 0 {
					continue
				}
				q1, q3 := quartiles(values)
				rows = append(rows, summaryRow{
					Workload: w, Metric: m.Name, Unit: m.Unit, Runs: len(values),
					Median: median(values), Q1: q1, Q3: q3, Spread: spread(values), Bound: m.Bound,
				})
			}
		}
	}
	return rows
}

func printSummary(w io.Writer, rows []summaryRow) {
	fmt.Fprintf(w, "%-15s %-34s %5s %14s %14s %14s %8s %6s\n", "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound")
	for _, r := range rows {
		bound := ""
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", r.Bound*100)
		}
		fmt.Fprintf(w, "%-15s %-34s %5d %14.6g %14.6g %14.6g %7.2f%% %6s\n",
			r.Workload, r.Metric, r.Runs, r.Median, r.Q1, r.Q3, r.Spread*100, bound)
	}
}

// Verdicts of a comparison.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge applies the rule later changes are held to. b is worse when its
// median is worse than a's by more than the bound. Where either side's
// run-to-run spread is wider than the bound the medians prove nothing:
// the verdict is unresolved unless every run of b reads better than
// every run of a. Otherwise b is better when its median improved by more
// than the bound, and the same when it did neither.
func judge(a, b []float64, m declaredMetric) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	sign := 1.0 // lower is better: growth is worsening
	if m.Better == "higher" {
		sign = -1
	}
	worsening := 0.0
	if ma != 0 {
		worsening = sign * (mb - ma) / ma
	}
	if worsening > m.Bound {
		return verdictWorse
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					return verdictUnresolved
				}
			}
		}
		return verdictBetter
	}
	if worsening < -m.Bound {
		return verdictBetter
	}
	return verdictSame
}

// compareDocuments prints one verdict per workload x end-to-end metric
// and reports whether any was "worse".
func compareDocuments(w io.Writer, decl *declaration, pathA, pathB string) (bool, error) {
	var docs [2]document
	for i, path := range []string{pathA, pathB} {
		data, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(data, &docs[i]); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range docs[i].Runs {
			for _, wl := range r.Workloads {
				if !wl.Correct {
					return false, fmt.Errorf("%s: %s has %d failed operations; its numbers are not comparable", path, wl.Name, wl.Failed)
				}
			}
		}
	}
	a, b := series(&docs[0], true), series(&docs[1], true)
	anyWorse := false
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound", "verdict")
	for _, name := range workloadNames {
		if a[name] == nil && b[name] == nil {
			continue
		}
		for _, m := range decl.EndToEnd {
			va, vb := a[name][m.Name], b[name][m.Name]
			verdict := judge(va, vb, m)
			anyWorse = anyWorse || verdict == verdictWorse
			change := 0.0
			if ma := median(va); ma != 0 {
				change = (median(vb) - ma) / ma
			}
			fmt.Fprintf(w, "%-15s %-16s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				name, m.Name, median(va), median(vb), change*100, spread(va)*100, spread(vb)*100, m.Bound*100, verdict)
		}
	}
	return anyWorse, nil
}
