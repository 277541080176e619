package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TABLES.json consumers (the nightly pipeline's `jq .tables`, dashboards)
// read these keys in this order; the tables round-trip exactly.
func TestWriteTablesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "TABLES.json")
	tables := []TableReport{{
		Name: "Table 3", Scenario: "Scenario Two", Seeds: []int64{1, 2},
		Spaces:   []SpaceReport{{Space: "Power-Delay", Rows: []RowReport{{Method: "PPATuner", HV: 0.25, HVStd: 0.5, Runs: 65}}}},
		Averages: []RowReport{{Method: "PPATuner", HV: 0.25, Runs: 65}},
	}}
	if err := WriteTablesJSON(path, []int64{1, 2}, 3, tables); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	last := -1
	for _, key := range []string{`"go_version": "go`, `"timestamp": "`, `"seeds": [`, `"workers": 3,`, `"tables": [`} {
		at := strings.Index(text, "\n  "+key)
		if at <= last {
			t.Fatalf("key %s missing or out of order:\n%s", key, text)
		}
		last = at
	}
	if !strings.HasSuffix(text, "}\n") {
		t.Errorf("document does not end in a newline:\n%s", text)
	}
	var doc struct {
		Tables []TableReport `json:"tables"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Tables, tables) {
		t.Errorf("tables round-trip as %+v, want %+v", doc.Tables, tables)
	}
}
