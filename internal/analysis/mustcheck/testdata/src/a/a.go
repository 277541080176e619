// Fixture for the mustcheck analyzer: discarded errors from the curated
// mat/robust APIs are flagged; checked errors and non-curated calls pass.
package a

import (
	"ppatuner/internal/gp"
	"ppatuner/internal/mat"
	"ppatuner/internal/robust"
)

func bad(a *mat.Matrix, c *mat.Cholesky, ck *robust.Checkpoint) {
	mat.NewCholesky(a)              // want `mat.NewCholesky discards its error`
	c.Extend(nil)                   // want `mat.Cholesky.Extend discards its error`
	c.FactorizePacked(nil, 0, 0, 1) // want `mat.Cholesky.FactorizePacked discards its error`
	defer ck.Save()                 // want `defer robust.Checkpoint.Save discards its error`
	go ck.Add(0, nil)               // want `go robust.Checkpoint.Add discards its error`
	f, _ := mat.NewCholesky(a)      // want `mat.NewCholesky assigns its error to _`
	_ = f
	_, _, _ = mat.SolveSPD(a, nil) // want `mat.SolveSPD assigns its error to _`
	robust.LoadCheckpoint("x")     // want `robust.LoadCheckpoint discards its error`
}

func badLease(ck *robust.CampaignCheckpoint) {
	ck.Lease("u", 1, "w")                               // want `robust.CampaignCheckpoint.Lease discards its error`
	ck.AddPartialObservation("u", robust.Observation{}) // want `robust.CampaignCheckpoint.AddPartialObservation discards its error`
}

func goodLease(ck *robust.CampaignCheckpoint) error {
	if err := ck.Lease("u", 1, "w"); err != nil {
		return err
	}
	_ = ck.LeaseHolder("u") // no error result and not curated: fine.
	return ck.AddPartialObservation("u", robust.Observation{})
}

func badFiles() {
	robust.WriteFileAtomic("x", nil)           // want `robust.WriteFileAtomic discards its error`
	defer robust.RemoveCampaignCheckpoint("x") // want `defer robust.RemoveCampaignCheckpoint discards its error`
	_ = robust.RemoveCampaignCheckpoint("x")   // want `robust.RemoveCampaignCheckpoint assigns its error to _`
	_ = robust.JournalPath("x")                // no error result and not curated: fine.
}

func goodFiles() error {
	if err := robust.WriteFileAtomic("x", nil); err != nil {
		return err
	}
	return robust.RemoveCampaignCheckpoint("x")
}

func badManifest(m *robust.JobManifest) {
	robust.LoadJobManifest("x")                  // want `robust.LoadJobManifest discards its error`
	id, _ := m.NextID()                          // want `robust.JobManifest.NextID assigns its error to _`
	go m.Put(robust.JobRecord{})                 // want `go robust.JobManifest.Put discards its error`
	defer m.SetUnit(id, "k", robust.JobRecord{}) // want `defer robust.JobManifest.SetUnit discards its error`
	_, _ = m.Get(id)                             // no error result and not curated: fine.
}

func goodManifest(m *robust.JobManifest) error {
	id, err := m.NextID()
	if err != nil {
		return err
	}
	if err := m.Put(robust.JobRecord{}); err != nil {
		return err
	}
	return m.SetUnit(id, "k", robust.JobRecord{})
}

func good(a *mat.Matrix, c *mat.Cholesky, ck *robust.Checkpoint) error {
	f, err := mat.NewCholesky(a)
	if err != nil {
		return err
	}
	_ = f.Solve(nil) // Solve returns no error and is not curated: fine.
	_ = ck.Len()
	if err := c.Extend(nil); err != nil {
		return err
	}
	if _, _, err := mat.SolveSPD(a, nil); err != nil {
		return err
	}
	return ck.Save()
}

func badInducing(x [][]float64) {
	gp.SelectInducing(x, nil, 4, 0)           // want `gp.SelectInducing discards its error`
	idx, _ := gp.SelectInducing(x, nil, 4, 0) // want `gp.SelectInducing assigns its error to _`
	_ = idx
}

func goodInducing(x [][]float64) ([]int, error) {
	idx, err := gp.SelectInducing(x, []float64{1}, 4, 9)
	if err != nil {
		return nil, err
	}
	return idx, nil
}
