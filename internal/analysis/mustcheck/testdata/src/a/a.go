// Fixture for the mustcheck analyzer: discarded errors from the curated
// mat/robust APIs are flagged; checked errors and non-curated calls pass.
package a

import (
	"ppatuner/internal/mat"
	"ppatuner/internal/robust"
)

func bad(a *mat.Matrix, c *mat.Cholesky, ck *robust.CampaignCheckpoint) {
	mat.NewCholesky(a)              // want `mat.NewCholesky discards its error`
	c.Extend(nil)                   // want `mat.Cholesky.Extend discards its error`
	c.FactorizePacked(nil, 0, 0, 1) // want `mat.Cholesky.FactorizePacked discards its error`
	defer ck.Retire()               // want `defer robust.CampaignCheckpoint.Retire discards its error`
	go ck.Adopt()                   // want `go robust.CampaignCheckpoint.Adopt discards its error`
	gen, _ := ck.Adopt()            // want `robust.CampaignCheckpoint.Adopt assigns its error to _`
	_ = gen
	f, _ := mat.NewCholesky(a) // want `mat.NewCholesky assigns its error to _`
	_ = f
	_, _, _ = mat.SolveSPD(a, nil)     // want `mat.SolveSPD assigns its error to _`
	robust.LoadCampaignCheckpoint("x") // want `robust.LoadCampaignCheckpoint discards its error`
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

func good(a *mat.Matrix, c *mat.Cholesky, ck *robust.CampaignCheckpoint) error {
	f, err := mat.NewCholesky(a)
	if err != nil {
		return err
	}
	_ = f.Solve(nil) // Solve returns no error and is not curated: fine.
	_ = ck.Cells()
	if err := c.Extend(nil); err != nil {
		return err
	}
	if _, _, err := mat.SolveSPD(a, nil); err != nil {
		return err
	}
	if _, err := ck.Adopt(); err != nil {
		return err
	}
	return ck.Retire()
}
