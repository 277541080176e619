//go:build amd64.v3

package core

// goamd64 is the amd64 code-generation level the test binary targets. At
// v3 the compiler may fuse a*b + c into one FMA, which can change the
// rounding of the Go code in the fit.
const goamd64 = "v3"
