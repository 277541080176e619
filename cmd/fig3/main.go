// Command fig3 regenerates the paper's Figure 3: the golden Pareto front of
// the Target2 benchmark versus the front PPATuner learns, in power-vs-delay
// space. It prints both series as CSV and renders an ASCII scatter plot.
// The learned front is Table 3's Power-Delay PPATuner cell for the seed:
// the run draws from that cell's random stream.
//
// Usage:
//
//	fig3 [-seed N] [-csv PATH] [-json PATH] [-workers N]
//	     [-checkpoint FILE [-resume]]
//
// -checkpoint persists every paid-for observation plus the tuner's starting
// RNG state (one partial cell of a campaign checkpoint; a per-run schema-v2
// file from earlier versions still resumes) so a killed run, restarted with
// -resume, restores the recorded state and replays from the file instead of
// re-running the tool; -workers bounds the engine's concurrency (identical
// output for any value).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"ppatuner"
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "optional path to write the two series as CSV")
	jsonPath := flag.String("json", "", "optional path to write the two series as JSON")
	workers := flag.Int("workers", 0, "tuner concurrency (0 = engine default; identical output for any value)")
	ckptPath := flag.String("checkpoint", "", "checkpoint file: observations and RNG state persist there")
	resume := flag.Bool("resume", false, "continue from an existing -checkpoint file (without it, a pre-existing file is an error)")
	flag.Parse()

	if *ckptPath != "" && !*resume {
		if fi, err := os.Stat(*ckptPath); err == nil && fi.Size() > 0 {
			fmt.Fprintf(os.Stderr, "fig3: checkpoint %s already exists; pass -resume to continue it or remove the file\n", *ckptPath)
			os.Exit(2)
		}
	}
	// Without -checkpoint the run's cell lives in memory.
	ck, err := ppatuner.LoadCampaignCheckpoint(*ckptPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fig3: %v\n", err)
		os.Exit(1)
	}
	if n := len(ck.PartialObservations(robust.RunKey)); n > 0 {
		fmt.Printf("checkpoint: resuming with %d cached observations from %s\n", n, *ckptPath)
	}

	s, err := ppatuner.ScenarioTwo()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fig3: %v\n", err)
		os.Exit(1)
	}
	space := ppatuner.ObjSpaces()[1] // Power-Delay
	spec := eval.UnitSpec{Scenario: s.Name, Space: space.Name, Method: eval.PPATuner, Seed: *seed}
	out, _, _, err := eval.RunCell(s, space, spec, ck, robust.RunKey, nil, ppatuner.HarnessRunOpts{Workers: *workers})
	if err == nil {
		// Fold the run's observation journal into the checkpoint file.
		err = ck.Retire()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fig3: %v\n", err)
		os.Exit(1)
	}
	if *ckptPath != "" {
		replayed, fresh := ck.Stats()
		fmt.Printf("checkpoint: %d replayed, %d fresh (now %d cached in %s)\n", replayed, fresh, len(ck.PartialObservations(robust.RunKey)), *ckptPath)
	}
	golden, learned := eval.Figure3Fronts(s, out)

	var b strings.Builder
	b.WriteString("series,power_mw,delay_ns\n")
	for _, p := range golden {
		fmt.Fprintf(&b, "golden,%.6f,%.6f\n", p[0], p[1])
	}
	for _, p := range learned {
		fmt.Fprintf(&b, "ppatuner,%.6f,%.6f\n", p[0], p[1])
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "fig3: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	} else {
		fmt.Print(b.String())
	}

	if *jsonPath != "" {
		doc := struct {
			Seed     int64       `json:"seed"`
			Golden   [][]float64 `json:"golden"`
			PPATuner [][]float64 `json:"ppatuner"`
		}{Seed: *seed, Golden: golden, PPATuner: learned}
		data, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig3: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "fig3: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	fmt.Println()
	fmt.Println("Figure 3: Pareto frontiers, power (mW, y) vs delay (ns, x) on Target2")
	fmt.Println("  o = golden front (best in benchmark)   * = PPATuner-learned front")
	fmt.Print(asciiScatter(golden, learned, 72, 22))
}

// asciiScatter renders the two point sets on a character grid.
func asciiScatter(golden, learned [][]float64, w, h int) string {
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, set := range [][][]float64{golden, learned} {
		for _, p := range set {
			minX = math.Min(minX, p[1])
			maxX = math.Max(maxX, p[1])
			minY = math.Min(minY, p[0])
			maxY = math.Max(maxY, p[0])
		}
	}
	if !(maxX > minX) || !(maxY > minY) {
		return "(degenerate ranges)\n"
	}
	padX := 0.05 * (maxX - minX)
	padY := 0.05 * (maxY - minY)
	minX, maxX = minX-padX, maxX+padX
	minY, maxY = minY-padY, maxY+padY

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	put := func(p []float64, ch byte) {
		c := int((p[1] - minX) / (maxX - minX) * float64(w-1))
		r := int((p[0] - minY) / (maxY - minY) * float64(h-1))
		r = h - 1 - r // y grows upward
		if grid[r][c] != ' ' && grid[r][c] != ch {
			grid[r][c] = '@' // overlap of the two series
			return
		}
		grid[r][c] = ch
	}
	for _, p := range golden {
		put(p, 'o')
	}
	for _, p := range learned {
		put(p, '*')
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.3f +%s\n", maxY, strings.Repeat("-", w))
	for _, row := range grid {
		fmt.Fprintf(&b, "%8s |%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%8.3f +%s\n", minY, strings.Repeat("-", w))
	fmt.Fprintf(&b, "%10s%-8.4f%s%8.4f\n", "", minX, strings.Repeat(" ", w-16), maxX)
	return b.String()
}
