package greenps_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// designRef matches "DESIGN.md §N[.M]" and "DESIGN §N[.M]", also when a
// line break (and a Go comment marker) falls between the two words.
var designRef = regexp.MustCompile(`DESIGN(?:\.md)?[\s/]*§(\d+(?:\.\d+)?)`)

// fuzzTarget matches a fuzz target's declaration in a Go test file.
var fuzzTarget = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)

// ciFuzzRun matches one fuzzer's command in the CI workflow's fuzz step:
// the target and the package directory it runs in.
var ciFuzzRun = regexp.MustCompile(`go test (-C (\S+) )?.*-fuzz=(\w+) .*?(\./\S*)\s*$`)

// designHeading matches DESIGN.md's numbered section headings:
// "## 8. Determinism …" and "### 7.1 The dense …".
var designHeading = regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? `)

// TestDesignReferencesResolve fails when a DESIGN.md section reference in
// the code, the top-level documents, the roadmap or the verify skill names
// a heading DESIGN.md does not have, so the design document can be
// restructured without leaving dangling pointers behind.
func TestDesignReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string]bool)
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("no numbered headings found in DESIGN.md")
	}

	files := []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md", filepath.Join("bench", "README.md"),
		filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designRef.FindAllSubmatchIndex(data, -1) {
			refs++
			if sec := string(data[m[2]:m[3]]); !sections[sec] {
				line := 1 + strings.Count(string(data[:m[0]]), "\n")
				t.Errorf("%s:%d: DESIGN.md §%s names no heading in DESIGN.md", path, line, sec)
			}
		}
	}
	if refs == 0 {
		t.Error("found no DESIGN.md references at all; is the pattern still right?")
	}
}

// TestCIFuzzStepListsEveryFuzzer fails when a fuzz target in the module,
// bench/ included, is missing from the CI workflow's fuzz step, or when the
// step runs a target that no longer exists in the package it names: a
// fuzzer CI never runs guards nothing, and a renamed one fails the job.
func TestCIFuzzStepListsEveryFuzzer(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	inCI := make(map[string]bool) // "dir FuzzName"
	for _, line := range strings.Split(string(ci), "\n") {
		m := ciFuzzRun.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		dir := filepath.Join(m[2], filepath.Clean(m[4]))
		if inCI[dir+" "+m[3]] {
			t.Errorf("ci.yml runs %s in %s twice", m[3], dir)
		}
		inCI[dir+" "+m[3]] = true
	}
	if len(inCI) == 0 {
		t.Fatal("found no fuzz commands in ci.yml; is the pattern still right?")
	}

	inTree := make(map[string]bool)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzTarget.FindAllStringSubmatch(string(data), -1) {
			key := filepath.Dir(path) + " " + m[1]
			inTree[key] = true
			if !inCI[key] {
				t.Errorf("%s: %s is not in ci.yml's fuzz step", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for key := range inCI {
		if !inTree[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		dir, name, _ := strings.Cut(key, " ")
		t.Errorf("ci.yml's fuzz step runs %s in %s, which declares no such fuzz target", name, dir)
	}
}
