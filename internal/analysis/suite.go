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
// AST-pattern check first, then the lock check, which walks the locksets
// of one function body at a time, then the determinism check. Each reads
// one package at a time.
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		shadow.Analyzer,
		lockcheck.Analyzer,
		detflow.Analyzer,
	}
}
