package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// goldenJSON holds the SHA-256 digests of round 0's outputs for seeds 1
// and 2 of every workload, keyed by SIMD level, then workload, then seed.
// The campaign workloads digest the table report plus the final checkpoint
// bytes; serve-small-jobs digests the fronts keyed by (client, job number)
// with job ids removed.
//
//go:embed testdata/e2e_golden.json
var goldenJSON []byte

// checkGolden compares a digest with the recorded one: "verified",
// "unverified" when none is recorded for this seed and SIMD level, or a
// mismatch description.
func checkGolden(workload string, seed int64, digest string) (string, error) {
	var golden map[string]map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return "", fmt.Errorf("testdata/e2e_golden.json: %w", err)
	}
	want, ok := golden[simdLevel()][workload][strconv.FormatInt(seed, 10)]
	switch {
	case !ok:
		return "unverified", nil
	case want != digest:
		return "MISMATCH (want " + want + ")", nil
	}
	return "verified", nil
}
