package core

import (
	"math/rand"
	"testing"
)

// A snapshot taken mid-stream must let a fresh source continue the exact
// sequence — the property schema-v2 checkpoint resume rests on.
func TestPCGSourceStateRoundTrip(t *testing.T) {
	src := NewPCGSource(7, 11)
	for i := 0; i < 100; i++ {
		src.Uint64()
	}
	state, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 50)
	for i := range want {
		want[i] = src.Uint64()
	}

	restored := NewPCGSource(0, 0) // seeds irrelevant: state overwrites them
	if err := restored.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := restored.Uint64(); got != w {
			t.Fatalf("draw %d after restore = %d, want %d", i, got, w)
		}
	}
}

func TestPCGSourceUnmarshalRejectsGarbage(t *testing.T) {
	src := NewPCGSource(1, 2)
	if err := src.UnmarshalBinary([]byte("not a pcg state")); err == nil {
		t.Fatal("garbage state accepted")
	}
}

// Restoring a mid-stream snapshot into a *rand.Rand must continue the
// derived stream (Perm, Float64) identically — i.e. rand.Rand holds no
// hidden state beyond the source.
func TestPCGSourceDrivesRandDeterministically(t *testing.T) {
	src := NewPCGSource(3, 5)
	rng := rand.New(src)
	rng.Perm(64)
	rng.Float64()
	state, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wantPerm := rng.Perm(32)
	wantF := rng.Float64()

	src2 := NewPCGSource(9, 9)
	if err := src2.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	rng2 := rand.New(src2)
	gotPerm := rng2.Perm(32)
	for i := range wantPerm {
		if gotPerm[i] != wantPerm[i] {
			t.Fatalf("Perm diverged at %d: %v vs %v", i, gotPerm, wantPerm)
		}
	}
	if gotF := rng2.Float64(); gotF != wantF {
		t.Fatalf("Float64 after restore = %v, want %v", gotF, wantF)
	}
}

// A tuner needs Options.Rng: without it New refuses to build.
func TestNewWithSrcOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pool := synthPool(rng, 120)
	if _, err := New(pool, poolEval(pool, synthObj, nil), Options{NumObjectives: 2}); err == nil {
		t.Fatal("tuner built without Rng")
	}
}
