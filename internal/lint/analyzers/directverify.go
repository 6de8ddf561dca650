package analyzers

import (
	"go/ast"
	"go/types"

	"sbr6/internal/lint/analysis"
)

// DirectVerify forbids calling the CGA primitive cga.Verify directly on
// sim paths. Every binding check must flow through the node's view of the
// verification memo (internal/verifycache), or through an ndp.Verifier
// hook a node can plug that view into. A direct call recomputes work the
// memo already paid for, and worse, its cost is invisible: the Stats the
// benchmarks and the differential suite reason about no longer cover
// every primitive (exactly the bug internal/dnssrv shipped with for five
// PRs). The sanctioned compute sites — the memo's single one and
// ndp.DirectVerifier's documented fallback — carry //sbr6:allow
// annotations; node-local self-checks outside the scoped packages
// (identity assembly, experiment harnesses) are untouched.
var DirectVerify = &analysis.Analyzer{
	Name: "directverify",
	Doc:  "forbid direct cga.Verify calls that bypass the verification memo on sim paths",
	Run:  runDirectVerify,
}

func runDirectVerify(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "sbr6/internal/cga" && fn.Name() == "Verify" {
				pass.Reportf(id.Pos(), "cga.Verify bypasses the verification memo on a sim path; route the check through the node's memo view (verifycache, or an ndp.Verifier hook)")
			}
			return true
		})
	}
	return nil
}
