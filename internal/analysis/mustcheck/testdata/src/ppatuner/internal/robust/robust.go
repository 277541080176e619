// Stub of the real internal/robust checkpoint surface for the mustcheck
// analyzer fixture.
package robust

type Observation struct{}

type CampaignCheckpoint struct{}

func LoadCampaignCheckpoint(path string) (*CampaignCheckpoint, error) { return nil, nil }

func (c *CampaignCheckpoint) Adopt() (uint64, error) { return 0, nil }

func (c *CampaignCheckpoint) Retire() error { return nil }

func (c *CampaignCheckpoint) Cells() int { return 0 }

func (c *CampaignCheckpoint) Lease(key string, epoch uint64, holder string) error { return nil }

func (c *CampaignCheckpoint) AddPartialObservation(key string, obs Observation) error { return nil }

func (c *CampaignCheckpoint) LeaseHolder(key string) string { return "" }

func WriteFileAtomic(path string, data []byte) error { return nil }

func RemoveCampaignCheckpoint(path string) error { return nil }

func JournalPath(path string) string { return path }

type JobRecord struct{}

type JobManifest struct{}

func LoadJobManifest(path string) (*JobManifest, error) { return nil, nil }

func (m *JobManifest) NextID() (string, error) { return "", nil }

func (m *JobManifest) Put(r JobRecord) error { return nil }

func (m *JobManifest) SetUnit(id, key string, u JobRecord) error { return nil }

func (m *JobManifest) Get(id string) (JobRecord, bool) { return JobRecord{}, false }
