package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ppatuner/internal/core"
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
)

// campaignDriver runs rounds of an in-process eval.Campaign against a file
// checkpoint — the cmd/tables code path.
type campaignDriver struct {
	scenarioBase
	methods       []eval.Method // nil: all five tuners
	spaces        []string      // objective spaces by name; nil: all three
	seedsPerRound int
	unitWorkers   int // Campaign.Workers: units run concurrently
	engineWorkers int // RunOpts.Workers: PPATuner's own parallelism
}

func (d *campaignDriver) executors() int { return d.unitWorkers }

func (d *campaignDriver) gpWorkers() int { return max(1, d.engineWorkers) }

// roundSeeds are the tuner seeds of round r: consecutive from
// seed + r*seedsPerRound, so each round runs fresh units.
func roundSeeds(seed int64, r, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed + int64(r*n+i)
	}
	return out
}

// freshPath returns path under dir after removing any file a previous run
// left there.
func freshPath(dir, name string) (string, error) {
	p := filepath.Join(dir, name)
	if err := os.RemoveAll(p); err != nil {
		return "", err
	}
	return p, nil
}

func (d *campaignDriver) round(r int, tr *Tracer) (*roundResult, error) {
	seeds := roundSeeds(d.cfg.seed, r, d.seedsPerRound)
	path, err := freshPath(d.cfg.dir, fmt.Sprintf("round%d.ckpt.json", r))
	if err != nil {
		return nil, err
	}
	ck, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		return nil, err
	}
	var spaces []eval.ObjSpace
	for _, name := range d.spaces {
		sp, err := eval.SpaceByName(name)
		if err != nil {
			return nil, err
		}
		spaces = append(spaces, sp)
	}
	c := &eval.Campaign{
		Scenario: d.sc, Seeds: seeds, Spaces: spaces, Methods: d.methods,
		Workers: d.unitWorkers, Checkpoint: ck,
		Opts: eval.RunOpts{Workers: d.engineWorkers},
	}
	res := &roundResult{}
	root := tr.Begin("round", fmt.Sprint(r), 0)
	var mu sync.Mutex
	type open struct {
		start time.Time
		span  int64
	}
	running := map[string]open{}
	evals := map[string][]int{} // fresh evaluations per unit key, in call order
	c.Gate = func(u eval.Unit) error {
		key := c.UnitKey(u)
		o := open{start: time.Now(), span: tr.Begin("unit", key, root)}
		mu.Lock()
		running[key] = o
		mu.Unlock()
		return nil
	}
	c.OnUnit = func(u eval.Unit, ur eval.UnitResult, _ *eval.Outcome) error {
		key := c.UnitKey(u)
		mu.Lock()
		defer mu.Unlock()
		o := running[key]
		tr.End(o.span)
		res.items = append(res.items, time.Since(o.start).Seconds())
		res.units++
		res.runs += ur.Runs
		res.hvErr += ur.HV
		return nil
	}
	if tr != nil {
		// Outer hook: one call through the whole evaluator stack, checkpoint
		// cache and write included. Inner hook: the tool call alone.
		c.Opts.Wrap = func(ev core.Evaluator) core.Evaluator {
			return func(i int) ([]float64, error) {
				t0 := time.Now()
				y, err := ev(i)
				tr.Record("eval", "", i, 0, t0, time.Now())
				return y, err
			}
		}
		c.WrapUnit = func(u eval.Unit, ev core.Evaluator) core.Evaluator {
			key := c.UnitKey(u)
			return func(i int) ([]float64, error) {
				mu.Lock()
				parent := running[key].span
				evals[key] = append(evals[key], i)
				mu.Unlock()
				t0 := time.Now()
				y, err := ev(i)
				tr.Record("tool", key, i, parent, t0, time.Now())
				return y, err
			}
		}
	}
	tbl, err := c.Run()
	tr.End(root)
	units := c.Units()
	res.attempted = len(units)
	if err != nil {
		res.failed = len(units) - res.units
		return res, err
	}
	tr.linkEvals()
	ckBytes, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := checkCampaign(c, tbl, ck, res); err != nil {
		res.failed = res.attempted
		return res, err
	}
	report, err := json.Marshal(tbl.Report(d.sc.Name, seeds))
	if err != nil {
		return res, err
	}
	res.output = append(append(report, '\n'), ckBytes...)
	res.extra = map[string]float64{"ckpt.file_kb": float64(len(ckBytes)) / 1024}
	if tr != nil {
		for _, u := range units {
			if u.Method == eval.PPATuner {
				res.gpUnits = append(res.gpUnits, gpUnit{sc: d.sc, spec: c.Spec(u), evals: evals[c.UnitKey(u)]})
			}
		}
	}
	return res, nil
}

// checkCampaign verifies a finished campaign's invariants, which hold for
// any seed: every unit completed once, the checkpoint's cells agree with the
// assembled table, and every score is in range.
func checkCampaign(c *eval.Campaign, tbl *eval.Table, ck *robust.CampaignCheckpoint, res *roundResult) error {
	units := c.Units()
	if res.units != len(units) || ck.Cells() != len(units) {
		return fmt.Errorf("campaign finished %d units (checkpoint %d cells), want %d", res.units, ck.Cells(), len(units))
	}
	results := make([]eval.UnitResult, len(units))
	for i, u := range units {
		cell, ok := ck.Done(c.UnitKey(u))
		if !ok {
			return fmt.Errorf("unit %s missing from the checkpoint", c.UnitKey(u))
		}
		if cell.HV < 0 || cell.HV > 1 || cell.Runs <= 0 || cell.Runs > c.Scenario.Budgets[u.Method] {
			return fmt.Errorf("unit %s: implausible result %+v", c.UnitKey(u), cell)
		}
		results[i] = eval.UnitResult{HV: cell.HV, ADRS: cell.ADRS, Runs: cell.Runs}
	}
	want, err := json.Marshal(c.Assemble(results).Report("", c.Seeds))
	if err != nil {
		return err
	}
	got, err := json.Marshal(tbl.Report("", c.Seeds))
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("table does not match the checkpoint's cells")
	}
	return nil
}
