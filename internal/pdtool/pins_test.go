package pdtool

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"ppatuner/internal/param"
	"ppatuner/internal/sample"
)

// pinCase is one (design, space) pair the paper's scenarios run the flow
// on, with the SHA-256 of its pinned outputs.
type pinCase struct {
	name   string
	design func() *Design
	space  func() *param.Space
	digest string
}

// pinCases cover every (design, space) pair of Table 1: Source1, Target1
// and Source2 on the small MAC, Target2 on the large MAC.
var pinCases = []pinCase{
	{"source1-small", SmallMAC, param.Source1Space, "54218a5d5d91b6d44551d9969a75cca63e82aed7ba5c0700aa1ae7e79fee3f35"},
	{"target1-small", SmallMAC, param.Target1Space, "0ef9af542cd45580674b84cff67bccd15c26b771dc9b84ccbf293ded3bfbbbd5"},
	{"source2-small", SmallMAC, param.Source2Space, "cf7bad7956ed1155163e19cd918d7c25cab8d05387d12a01189a95112dc7158b"},
	{"target2-large", LargeMAC, param.Target2Space, "3b711d0ff99ab71704c476efdc00fa368776ff1977ad946c685c0d2f0bb0ec2b"},
}

// pinConfigs is the number of Latin-hypercube configurations pinned per
// pair.
const pinConfigs = 24

// pinDigest runs the flow on pinConfigs LHS configurations of the space
// and hashes the IEEE bits of the QoR and of the report's scalars.
func pinDigest(t *testing.T, d *Design, s *param.Space) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(bits uint64) {
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	for _, cfg := range sample.LHSConfigs(rand.New(rand.NewSource(7)), s, pinConfigs) {
		q, rep, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Key(), err)
		}
		putF(q.PowerMW)
		putF(q.DelayNS)
		putF(q.AreaUm2)
		putF(rep.Place.HPWL)
		putF(rep.Place.Overflow)
		put(uint64(rep.DRV.TotalBuffers))
		putF(rep.CTS.SkewPS)
		putF(rep.Route.MaxCongestion)
		put(uint64(rep.Timing.Passes))
		put(uint64(rep.Timing.Upsized))
		putF(rep.Timing.AchievedPeriodPS)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFlowPins holds the flow bit for bit: any change to the arithmetic of
// a stage, or to the order it sums in, moves a digest.
func TestFlowPins(t *testing.T) {
	for _, pc := range pinCases {
		t.Run(pc.name, func(t *testing.T) {
			if got := pinDigest(t, pc.design(), pc.space()); got != pc.digest {
				t.Errorf("digest %s, pinned %s", got, pc.digest)
			}
		})
	}
}

// maxRunAllocs bounds the heap allocations of one large-MAC Run, about 4.2k
// while the flow reuses its placement buffers and caches each cell's
// electrical view. Rebuilding them per round and per pin makes about 30.7k.
const maxRunAllocs = 6000

// TestRunAllocs guards the allocation count independently of host speed.
func TestRunAllocs(t *testing.T) {
	d := LargeMAC()
	cfg := sample.LHSConfigs(rand.New(rand.NewSource(7)), param.Target2Space(), 1)[0]
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := Run(d, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxRunAllocs {
		t.Errorf("large-MAC Run made %.0f allocations, bound %d", allocs, maxRunAllocs)
	}
}

// BenchmarkRun times the flow over LHS configurations of each pinned pair.
func BenchmarkRun(b *testing.B) {
	for _, pc := range pinCases {
		b.Run(pc.name, func(b *testing.B) {
			d := pc.design()
			cfgs := sample.LHSConfigs(rand.New(rand.NewSource(7)), pc.space(), 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Run(d, cfgs[i%len(cfgs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
