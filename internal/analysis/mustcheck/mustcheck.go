// Package mustcheck flags discarded error results from the numerical and
// durability APIs where silently ignoring the error corrupts results.
//
// This is deliberately not blanket errcheck. The curated list covers two
// invariant classes: Cholesky factorisation/solve entry points in
// internal/mat, whose error is the only signal that a Gram matrix was not
// positive-definite (proceeding with a half-written factor poisons every
// downstream NLML and posterior), and durability/scheduling in
// internal/robust: a dropped checkpoint write error turns the crash-safe
// resume guarantee into silent data loss, and a dropped circuit-breaker
// gate error (Acquire) means evaluating straight through an open breaker —
// ErrOutageDeadline and a cancelled pause are stop signals, not
// advisories.
package mustcheck

import (
	"go/ast"
	"go/types"

	"ppatuner/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "mustcheck",
	Doc: `flag discarded errors from mat factorisation/solve and robust checkpoint APIs

A call to one of the curated functions whose error result is dropped — the
call used as a statement, deferred, spawned with go, or assigned to the
blank identifier — is flagged. The list: mat.NewCholesky,
mat.CholeskyWithJitter, mat.SolveSPD, (*mat.Cholesky).Extend,
(*mat.Cholesky).FactorizePacked;
robust.LoadCampaignCheckpoint, (*robust.CampaignCheckpoint).Complete,
(*robust.CampaignCheckpoint).StartCell, (*robust.CampaignCheckpoint).Lease,
(*robust.CampaignCheckpoint).AddPartialObservation,
(*robust.CampaignCheckpoint).Adopt, (*robust.CampaignCheckpoint).Retire,
robust.WriteFileAtomic, robust.RemoveCampaignCheckpoint;
robust.LoadJobManifest, (*robust.JobManifest).NextID,
(*robust.JobManifest).Put, (*robust.JobManifest).SetStatus,
(*robust.JobManifest).SetStatusAt, (*robust.JobManifest).SetGolden,
(*robust.JobManifest).SetUnit, (*robust.JobManifest).Delete;
(*robust.Breaker).Acquire.

Lease and AddPartialObservation join the list with the distributed-campaign
coordinator: a dropped Lease error hides an epoch regression (the zombie
defence), and a dropped AddPartialObservation error silently forfeits
streamed progress the next re-grant was meant to replay.

Adopt and Retire join with the single-run checkpoint: a dropped Retire
error is a finished run whose file silently never received its journal,
and a dropped Adopt error is a coordinator running unfenced.

The file helpers join with the observation journal: a dropped
WriteFileAtomic error is a state file silently never written, and a dropped
RemoveCampaignCheckpoint error leaves a job's checkpoint or journal behind
that the next garbage collection believes gone.

The job-manifest mutators join with the manifest journal: a dropped error
is a job transition a restarted server never sees, and after a failed
append only the caller knows that the next mutation must compact.`,
	Run: run,
}

// must maps package path -> function or Type.Method name -> true for
// calls whose error result is load-bearing.
var must = map[string]map[string]bool{
	"ppatuner/internal/mat": {
		"NewCholesky":              true,
		"CholeskyWithJitter":       true,
		"SolveSPD":                 true,
		"Cholesky.Extend":          true,
		"Cholesky.FactorizePacked": true,
	},
	"ppatuner/internal/robust": {
		"LoadCampaignCheckpoint":                   true,
		"CampaignCheckpoint.Complete":              true,
		"CampaignCheckpoint.StartCell":             true,
		"CampaignCheckpoint.Lease":                 true,
		"CampaignCheckpoint.AddPartialObservation": true,
		"CampaignCheckpoint.Adopt":                 true,
		"CampaignCheckpoint.Retire":                true,
		"WriteFileAtomic":                          true,
		"RemoveCampaignCheckpoint":                 true,
		"LoadJobManifest":                          true,
		"JobManifest.NextID":                       true,
		"JobManifest.Put":                          true,
		"JobManifest.SetStatus":                    true,
		"JobManifest.SetStatusAt":                  true,
		"JobManifest.SetGolden":                    true,
		"JobManifest.SetUnit":                      true,
		"JobManifest.Delete":                       true,
		"Breaker.Acquire":                          true,
	},
}

// curated resolves a call to its curated-list key, or "" if not listed.
func curated(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	byName, ok := must[fn.Pkg().Path()]
	if !ok {
		return ""
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if !byName[name] {
		return ""
	}
	return fn.Pkg().Name() + "." + name
}

// errResultIndex returns the index of the trailing error result of the
// call, or -1 if the call does not return an error.
func errResultIndex(info *types.Info, call *ast.CallExpr) int {
	t := info.TypeOf(call)
	if t == nil {
		return -1
	}
	if tup, ok := t.(*types.Tuple); ok {
		last := tup.Len() - 1
		if last >= 0 && isErrorType(tup.At(last).Type()) {
			return last
		}
		return -1
	}
	if isErrorType(t) {
		return 0
	}
	return -1
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				report(pass, st.X, "")
			case *ast.GoStmt:
				report(pass, st.Call, "go ")
			case *ast.DeferStmt:
				report(pass, st.Call, "defer ")
			case *ast.AssignStmt:
				checkAssign(pass, st)
			}
			return true
		})
	}
	return nil, nil
}

// report flags expr if it is a curated call whose results are all dropped.
func report(pass *analysis.Pass, expr ast.Expr, prefix string) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return
	}
	name := curated(pass.TypesInfo, call)
	if name == "" || errResultIndex(pass.TypesInfo, call) < 0 {
		return
	}
	pass.Reportf(call.Pos(),
		"%s%s discards its error; a non-PD factorisation or lost checkpoint write must not pass silently", prefix, name)
}

// checkAssign flags curated calls whose error result lands in the blank
// identifier, e.g. `c, _ := mat.NewCholesky(a)`.
func checkAssign(pass *analysis.Pass, st *ast.AssignStmt) {
	// Single call with tuple destructuring: Lhs aligns with the call's
	// result tuple.
	if len(st.Rhs) == 1 {
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		name := curated(pass.TypesInfo, call)
		if name == "" {
			return
		}
		idx := errResultIndex(pass.TypesInfo, call)
		if idx < 0 || idx >= len(st.Lhs) {
			return
		}
		if id, ok := st.Lhs[idx].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(call.Pos(),
				"%s assigns its error to _; a non-PD factorisation or lost checkpoint write must not pass silently", name)
		}
		return
	}
	// Parallel assignment: each RHS maps to one LHS.
	for i, rhs := range st.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		name := curated(pass.TypesInfo, call)
		if name == "" || errResultIndex(pass.TypesInfo, call) < 0 || i >= len(st.Lhs) {
			continue
		}
		if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(call.Pos(),
				"%s assigns its error to _; a non-PD factorisation or lost checkpoint write must not pass silently", name)
		}
	}
}
