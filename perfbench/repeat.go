package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// child runs this command again in a fresh process with args, passing its
// standard error through, and returns its standard output.
func child(args []string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	return out.Bytes(), err
}

// withFlag returns args with --name set to value (dropping any earlier
// setting of it, in either -name or --name form).
func withFlag(args []string, name, value string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == name {
			i++ // skip the value
			continue
		}
		if strings.HasPrefix(a, name+"=") {
			continue
		}
		out = append(out, args[i])
	}
	return append(out, "--"+name, value)
}

// runAll runs every workload in its own process.
func runAll(args []string) error {
	var failed []string
	for _, w := range workloads {
		out, err := child(withFlag(args, "workload", w.name))
		os.Stdout.Write(out)
		if err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// bounds reads the end-to-end regression bounds from BENCHMARK.json in the
// working directory; a missing file gives none.
func bounds() map[string]float64 {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &doc) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// runRepeat runs a workload n times in fresh processes with seeds
// seed..seed+n-1 and prints, per metric, the median, the quartiles and the
// spread (interquartile range over the median) against its bound.
func runRepeat(name string, seed int64, n int, args []string) error {
	args = withFlag(args, "repeat", "0")
	values := map[string][]float64{}
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	allCorrect := true
	for i := 0; i < n; i++ {
		s := strconv.FormatInt(seed+int64(i), 10)
		out, err := child(withFlag(args, "seed", s))
		if err != nil {
			return fmt.Errorf("seed %s: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %s: result line: %w", s, err)
		}
		allCorrect = allCorrect && res.Correct
		var line strings.Builder
		for _, m := range defs {
			if v, ok := res.Metrics[m.name]; ok {
				values[m.name] = append(values[m.name], v.Value)
				fmt.Fprintf(&line, " %s=%.4g", m.name, v.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %s:%s\n", name, s, line.String())
	}
	lim := bounds()
	fmt.Printf("# %s: %d runs, seeds %d..%d, all correct: %v\n", name, n, seed, seed+int64(n)-1, allCorrect)
	fmt.Printf("%-26s %14s %14s %14s %8s %6s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, m := range defs {
		k := m.name
		if len(values[k]) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(values[k])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		verdict, bound := "", "-"
		if b, ok := lim[k]; ok && k != "setup_s" {
			bound = strconv.FormatFloat(b, 'g', -1, 64)
			verdict = "within"
			if spread > b {
				verdict = "OUTSIDE"
			}
		}
		fmt.Printf("%-26s %14.6g %14.6g %14.6g %8.4f %6s %s %s\n", k, q2, q1, q3, spread, bound, verdict, m.unit)
	}
	if !allCorrect {
		return fmt.Errorf("%s: some runs were not correct", name)
	}
	return nil
}
