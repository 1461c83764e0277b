package greenps_test

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"testing"

	"github.com/greenps/greenps/internal/analysis/scope"
)

// fusedOp matches a fused multiply-add in the arm64 assembly listing that
// -gcflags=-S prints, capturing the source position and the instruction.
var fusedOp = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)

// TestPlanPathHasNoFusedMultiplyAdd cross-compiles the plan-producing
// packages, plus the message and workload packages they take their
// numbers from, for arm64 and fails on any fused multiply-add. The Go spec
// lets a compiler fuse x*y + z into one instruction with one rounding
// unless float64(x*y) forces the product's own; amd64 never fuses these
// packages and arm64 does, so every unconverted product feeding an add or
// a subtract is a float that can differ between the two, and with it a
// plan (DESIGN.md §8).
func TestPlanPathHasNoFusedMultiplyAdd(t *testing.T) {
	pkgs := append([]string{scope.Module + "/internal/message", scope.Module + "/internal/workload"},
		scope.DeterministicPackages...)
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-S"}, pkgs...)...)
	cmd.Env = append(os.Environ(), "GOARCH=arm64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	for _, pkg := range pkgs {
		if !bytes.Contains(out, []byte(pkg+".")) {
			t.Fatalf("no assembly listed for %s; the check would pass without looking", pkg)
		}
	}
	for _, m := range fusedOp.FindAllSubmatch(out, -1) {
		t.Errorf("%s: %s; write the product as float64(a*b)", m[1], m[2])
	}
}
