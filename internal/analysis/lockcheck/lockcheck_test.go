package lockcheck_test

import (
	"testing"

	"github.com/greenps/greenps/internal/analysis/analysistest"
	"github.com/greenps/greenps/internal/analysis/lockcheck"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, "testdata/src/lockcheck", "fixture/lockcheck", lockcheck.Analyzer)
}
