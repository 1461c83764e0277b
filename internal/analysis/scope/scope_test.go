package scope_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/analysis/scope"
)

// planPathHelpers are the in-module packages outside DeterministicPackages
// that the plan path imports. detflow does not lint them, so none may
// reference a NondetSourceOf function where a value can reach a plan.
// parwork reads runtime.GOMAXPROCS, which only sizes its worker pool; the
// plan oracles pin the plan at every worker count.
var planPathHelpers = []string{
	scope.Module + "/internal/message",
	scope.Module + "/internal/extsort",
	scope.ParworkPath,
}

// TestPlanPathImportClosure pins the fact that lets detflow stay local to
// the deterministic packages: their in-module import closure holds only
// themselves and planPathHelpers. A package joining the closure must be
// checked for nondeterminism sources before it is listed here.
func TestPlanPathImportClosure(t *testing.T) {
	args := append([]string{"list", "-deps", "-f", "{{if not .Standard}}{{.ImportPath}}{{end}}"}, scope.DeterministicPackages...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	allowed := make(map[string]bool)
	for _, list := range [][]string{scope.DeterministicPackages, planPathHelpers} {
		for _, p := range list {
			allowed[p] = true
		}
	}
	for _, p := range strings.Fields(string(out)) {
		if strings.HasPrefix(p, scope.Module+"/") && !allowed[p] {
			t.Errorf("%s is in the deterministic packages' import closure: check it for NondetSourceOf functions (detflow's source table), or add it to scope.DeterministicPackages", p)
		}
	}
}
