package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func loadTestDeclaration(t *testing.T) *declaration {
	t.Helper()
	decl, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

// The names and units the binary prints must be exactly those
// BENCHMARK.json declares, in the same order.
func TestCatalogueMatchesDeclaration(t *testing.T) {
	decl := loadTestDeclaration(t)
	for _, part := range []struct {
		what      string
		catalogue []metricDef
		declared  []declaredMetric
	}{{"end_to_end", endToEnd, decl.EndToEnd}, {"per_layer", perLayer, decl.PerLayer}} {
		if len(part.catalogue) != len(part.declared) {
			t.Errorf("%s: the binary reports %d metrics, BENCHMARK.json declares %d", part.what, len(part.catalogue), len(part.declared))
			continue
		}
		for i, m := range part.catalogue {
			if d := part.declared[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s[%d]: the binary reports %s (%s), BENCHMARK.json declares %s (%s)", part.what, i, m.name, m.unit, d.Name, d.Unit)
			}
		}
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(declared, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: the binary runs %v, BENCHMARK.json declares %v", workloadNames, declared)
	}
}

// The limits the driver refuses a declaration over.
func TestDeclarationWithinContract(t *testing.T) {
	decl := loadTestDeclaration(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range decl.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, m := range decl.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range decl.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d", decl.RunSeconds)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths %v", decl.Paths)
	}
}

// The driver's last line carries exactly the pass's catalogue.
func TestContractLineCarriesTheCatalogue(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := newResult("wire_chain3", 1, traced)
		for _, m := range res.catalogue() {
			res.set(m.name, 1.5)
		}
		res.check(true, "")
		res.finish()
		line, err := res.contractLine()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsRune(line, '\n') {
			t.Error("the result spans more than one line")
		}
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted != 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("traced=%v: header %s", traced, line)
		}
		if len(got.Metrics) != len(res.catalogue()) {
			t.Errorf("traced=%v: %d metrics on the line, %d in the catalogue", traced, len(got.Metrics), len(res.catalogue()))
		}
		for _, m := range res.catalogue() {
			if v, ok := got.Metrics[m.name]; !ok || v.Value == nil || v.Unit != m.unit {
				t.Errorf("traced=%v: metric %s missing or malformed", traced, m.name)
			}
		}
	}
}

// An end-to-end metric a pass failed to produce is a failed operation.
func TestMissingMetricFailsThePass(t *testing.T) {
	res := newResult("wire_chain3", 1, false)
	res.check(true, "")
	res.finish()
	if res.Failed != int64(len(endToEnd)) {
		t.Errorf("failed = %d with every end-to-end metric missing, want %d", res.Failed, len(endToEnd))
	}
}

func TestJudge(t *testing.T) {
	lower := declaredMetric{Name: "wait_p50_ms", Better: "lower", Bound: 0.10}
	higher := declaredMetric{Name: "op_rate", Better: "higher", Bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005}
	}
	noisy := func(center float64) []float64 {
		return []float64{center * 0.8, center, center * 1.2, center * 0.85, center * 1.15}
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		m    declaredMetric
		want string
	}{
		{"within the bound", steady(100), steady(105), lower, verdictSame},
		{"worse by more than the bound", steady(100), steady(120), lower, verdictWorse},
		{"better by more than the bound", steady(100), steady(80), lower, verdictBetter},
		{"a higher rate is better", steady(100), steady(120), higher, verdictBetter},
		{"a lower rate is worse", steady(100), steady(80), higher, verdictWorse},
		{"spread wider than the bound", noisy(100), noisy(97), lower, verdictUnresolved},
		{"wide spread but every run better", noisy(100), noisy(50), lower, verdictBetter},
		{"no runs on one side", steady(100), nil, lower, verdictUnresolved},
	} {
		if got := judge(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// Two documents through -compare: the exit code reports a regression.
func TestCompareDocuments(t *testing.T) {
	decl := loadTestDeclaration(t)
	mk := func(wait float64) *document {
		doc := &document{}
		for i := 0; i < 5; i++ {
			wd := workloadDocument{Name: "wire_chain3", Correct: true, EndToEnd: map[string]metricValue{}}
			for _, m := range decl.EndToEnd {
				wd.EndToEnd[m.Name] = metricValue{Value: 10 + float64(i)*0.01, Unit: m.Unit}
			}
			wd.EndToEnd["wait_p50_ms"] = metricValue{Value: wait + float64(i)*0.001, Unit: "ms"}
			doc.Runs = append(doc.Runs, runDocument{Workloads: []workloadDocument{wd}})
		}
		return doc
	}
	dir := t.TempDir()
	write := func(name string, doc *document) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, nil, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", mk(2)), write("same.json", mk(2.01)), write("slow.json", mk(3))
	var out, errs bytes.Buffer
	if code := run([]string{"-benchmark-json", "../BENCHMARK.json", "-compare", a, same}, &out, &errs); code != 0 {
		t.Errorf("equal documents: exit %d\n%s%s", code, out.String(), errs.String())
	}
	if strings.Contains(out.String(), verdictWorse) {
		t.Errorf("equal documents judged worse:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-benchmark-json", "../BENCHMARK.json", "-compare", a, slow}, &out, &errs); code != 1 {
		t.Errorf("a 50%% slower wait: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 50%% slower wait was not judged worse:\n%s", out.String())
	}
	rows := summarize(mk(2), decl)
	if len(rows) != len(decl.EndToEnd) {
		t.Fatalf("summary has %d rows, want %d", len(rows), len(decl.EndToEnd))
	}
}
