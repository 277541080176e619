package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStats is a snapshot of the process counters the end-to-end metrics
// difference across a measured phase.
type procStats struct {
	wall  time.Time
	cpu   time.Duration // user + system
	wchar int64         // bytes passed to write syscalls: files and sockets alike
}

func snapshot() (procStats, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procStats{}, fmt.Errorf("getrusage: %w", err)
	}
	wchar, err := procField("/proc/self/io", "wchar:")
	if err != nil {
		return procStats{}, err
	}
	return procStats{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		wchar: wchar,
	}, nil
}

// since returns wall seconds, CPU seconds and MB written between two
// snapshots.
func (a procStats) since(b procStats) (wall, cpu, writeMB float64) {
	return a.wall.Sub(b.wall).Seconds(), (a.cpu - b.cpu).Seconds(), float64(a.wchar-b.wchar) / 1e6
}

// stealSeconds is the CPU time the hypervisor has taken from this host's
// CPUs since boot (the steal column of /proc/stat, at 100 ticks a second);
// a diagnostic of host interference, 0 where the kernel reports none.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// resetPeakRSS lowers the resident-set high-water mark to the current
// resident set, so the next peakRSSMB covers only what runs in between. A
// kernel without the reset leaves the mark cumulative.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmHWM:")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// procField reads the integer after a "name:" line prefix of a /proc file.
func procField(path, prefix string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseInt(fields[0], 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %q line", path, prefix)
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs, interpolated
// linearly between the closest ranks (NumPy's default), and the sample
// count. An empty sample gives 0.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo]), len(s)
}

// pct is percentile without the count.
func pct(xs []float64, p float64) float64 {
	v, _ := percentile(xs, p)
	return v
}

// quartiles returns the three cut points of xs by the exclusive method of
// Python's statistics.quantiles(xs, n=4), the definition the benchmark's
// spread check uses. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
