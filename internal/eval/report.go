package eval

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// tablesDoc is the TABLES.json document: everything a downstream consumer
// (the nightly CI pipeline, dashboards) needs to interpret the numbers.
type tablesDoc struct {
	GoVersion string        `json:"go_version"`
	Timestamp string        `json:"timestamp"`
	Seeds     []int64       `json:"seeds"`
	Workers   int           `json:"workers"`
	Tables    []TableReport `json:"tables"`
}

// WriteTablesJSON writes the TABLES.json document of cmd/tables and
// cmd/ppacoord to path: the regenerated tables, stamped with the Go
// version, the current UTC time, the seeds and the worker count, so the
// single-process and distributed pipelines feed the same consumers.
func WriteTablesJSON(path string, seeds []int64, workers int, tables []TableReport) error {
	doc := tablesDoc{
		GoVersion: runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Seeds:     seeds,
		Workers:   workers,
		Tables:    tables,
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return fmt.Errorf("eval: encode TABLES.json: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// TableReport is the machine-readable form of one comparison table — the
// per-table payload of cmd/tables' TABLES.json artifact. Every cell
// carries the seed mean and the sample standard deviation, so downstream
// tooling (the nightly CI pipeline, regression dashboards) can judge a
// shift against run-to-run noise instead of eyeballing text tables.
type TableReport struct {
	Name     string        `json:"name"`
	Scenario string        `json:"scenario"`
	Seeds    []int64       `json:"seeds"`
	Spaces   []SpaceReport `json:"spaces"`
	Averages []RowReport   `json:"averages"`
}

// SpaceReport is one objective space's row of method results.
type SpaceReport struct {
	Space string      `json:"space"`
	Rows  []RowReport `json:"rows"`
}

// RowReport is one table cell.
type RowReport struct {
	Method  string  `json:"method"`
	HV      float64 `json:"hv"`
	HVStd   float64 `json:"hv_std"`
	ADRS    float64 `json:"adrs"`
	ADRSStd float64 `json:"adrs_std"`
	Runs    float64 `json:"runs"`
	RunsStd float64 `json:"runs_std"`
}

func rowReport(r Row) RowReport {
	return RowReport{
		Method:  string(r.Method),
		HV:      r.HV,
		HVStd:   r.HVStd,
		ADRS:    r.ADRS,
		ADRSStd: r.ADRSStd,
		Runs:    r.Runs,
		RunsStd: r.RunsStd,
	}
}

// Report flattens the table into its machine-readable form.
func (t *Table) Report(name string, seeds []int64) TableReport {
	rep := TableReport{
		Name:     name,
		Scenario: t.Scenario.Name,
		Seeds:    append([]int64(nil), seeds...),
	}
	spaces := t.spaceList()
	for si, rows := range t.Rows {
		sr := SpaceReport{Space: spaces[si].Name}
		for _, r := range rows {
			sr.Rows = append(sr.Rows, rowReport(r))
		}
		rep.Spaces = append(rep.Spaces, sr)
	}
	for _, r := range t.Averages() {
		rep.Averages = append(rep.Averages, rowReport(r))
	}
	return rep
}
