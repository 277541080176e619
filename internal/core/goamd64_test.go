//go:build !amd64.v3

package core

// goamd64 is "v1" for every build below GOAMD64=v3, where the compiler
// never fuses a*b + c (see goamd64_v3_test.go).
const goamd64 = "v1"
