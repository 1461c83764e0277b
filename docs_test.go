package greenps_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designRef matches "DESIGN.md §N[.M]" and "DESIGN §N[.M]", also when a
// line break (and a Go comment marker) falls between the two words.
var designRef = regexp.MustCompile(`DESIGN(?:\.md)?[\s/]*§(\d+(?:\.\d+)?)`)

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
