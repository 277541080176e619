package gp

// Model and Spec are pinned by the end-to-end benchmark module alone:
// perfbench/gpreplay.go declares its surrogates as []gp.Model and builds
// each one with gp.Spec{}.New(gp.RBF, dim, ard). Every other caller holds
// *GP and calls New. Delete both, with CovKind, RBF and New's kind
// parameter, in the next change that edits perfbench.

// Model is the exact transfer GP, the only surrogate.
type Model = *GP

// Spec selects nothing: the exact GP is the only surrogate.
type Spec struct{}

// New returns New(kind, dim, ard).
func (Spec) New(kind CovKind, dim int, ard bool) Model { return New(kind, dim, ard) }
