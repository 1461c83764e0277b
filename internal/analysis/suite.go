// Package analysis aggregates the greenvet analyzer suite. See DESIGN.md
// §8 for the mapping between each analyzer and the determinism invariant
// it guards.
package analysis

import (
	"github.com/greenps/greenps/internal/analysis/detflow"
	"github.com/greenps/greenps/internal/analysis/errflow"
	"github.com/greenps/greenps/internal/analysis/framework"
	"github.com/greenps/greenps/internal/analysis/hotalloc"
	"github.com/greenps/greenps/internal/analysis/lockcheck"
	"github.com/greenps/greenps/internal/analysis/maporder"
	"github.com/greenps/greenps/internal/analysis/nondet"
	"github.com/greenps/greenps/internal/analysis/shadow"
)

// Suite returns every greenvet analyzer in presentation order: the
// AST-pattern checks first, then the CFG/dataflow checks built on
// internal/analysis/cfg, then the interprocedural checks built on
// internal/analysis/callgraph function summaries.
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		maporder.Analyzer,
		nondet.Analyzer,
		shadow.Analyzer,
		lockcheck.Analyzer,
		errflow.Analyzer,
		hotalloc.Analyzer,
		detflow.Analyzer,
	}
}
