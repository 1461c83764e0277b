// Package analysis aggregates the greenvet analyzer suite. See DESIGN.md
// §8 for the mapping between each analyzer and the determinism invariant
// it guards.
package analysis

import (
	"github.com/greenps/greenps/internal/analysis/detflow"
	"github.com/greenps/greenps/internal/analysis/framework"
	"github.com/greenps/greenps/internal/analysis/lockcheck"
	"github.com/greenps/greenps/internal/analysis/shadow"
)

// Suite returns every greenvet analyzer in presentation order: the
// AST-pattern check first, then the lock check, which classifies the
// locksets internal/analysis/callgraph records over each body's CFG, then
// the determinism check, whose taint rules ride on the same call graph's
// function summaries.
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		shadow.Analyzer,
		lockcheck.Analyzer,
		detflow.Analyzer,
	}
}
