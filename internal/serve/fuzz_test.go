package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"ppatuner/internal/robust"
)

// manifestBytes reads the job manifest's base file and journal (nil when
// absent).
func manifestBytes(t *testing.T, dir string) [2][]byte {
	t.Helper()
	var out [2][]byte
	for i, path := range []string{robust.JobManifestPath(dir), robust.JournalPath(robust.JobManifestPath(dir))} {
		data, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// FuzzSubmit posts arbitrary bodies to the submit handler of a server that
// was never started, so accepted jobs only queue. The handler must never
// panic or answer 5xx; a 400 must leave the manifest as it was; and the
// spec a 202 stored must pass plan again, or Start would fail at restart a
// job that submit accepted. The seed corpus is testdata/fuzz/FuzzSubmit.
func FuzzSubmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		s, err := New(Config{StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		before := manifestBytes(t, dir)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted:
			var resp SubmitResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("202 body %q: %v", rec.Body, err)
			}
			stored, ok := s.manifest.Get(resp.ID)
			if !ok {
				t.Fatalf("accepted job %s is not in the manifest", resp.ID)
			}
			var req JobRequest
			if err := json.Unmarshal(stored.Spec, &req); err != nil {
				t.Fatalf("accepted job %s: stored spec %s: %v", resp.ID, stored.Spec, err)
			}
			if _, err := s.plan(req); err != nil {
				t.Fatalf("accepted job %s: stored spec %s fails plan: %v", resp.ID, stored.Spec, err)
			}
		case http.StatusBadRequest:
			if after := manifestBytes(t, dir); !bytes.Equal(after[0], before[0]) || !bytes.Equal(after[1], before[1]) {
				t.Fatalf("a refused submission changed the manifest: %q", rec.Body)
			}
		default:
			t.Fatalf("status %d: %q", rec.Code, rec.Body)
		}
	})
}
