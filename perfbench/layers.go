package main

import (
	"strconv"
	"strings"
	"time"

	"ppatuner/internal/benchdata"
	"ppatuner/internal/eval"
	"ppatuner/internal/pdtool"
)

var perLayer = []metricDef{
	{"benchdata.generate_s", "s"},
	{"benchdata.flow_runs", "count"},
	{"pdtool.run_ms.p50", "ms"},
	{"pdtool.run_ms.p90", "ms"},
	{"eval.units", "count"},
	{"eval.unit_s.p50", "s"},
	{"eval.unit_s.p90", "s"},
	{"eval.worker_busy_s.max", "s"},
	{"eval.worker_busy_s.min", "s"},
	{"eval.idle_s", "s"},
	{"eval.hv_err", "ratio"},
	{"tuner.tcad19.busy_s", "s"},
	{"tuner.mlcad19.busy_s", "s"},
	{"tuner.dac19.busy_s", "s"},
	{"tuner.aspdac20.busy_s", "s"},
	{"tuner.ppatuner.busy_s", "s"},
	{"gp.fit_s", "s"},
	{"gp.add_s", "s"},
	{"gp.predict_s", "s"},
	{"gp.fits", "count"},
	{"gp.adds", "count"},
	{"gp.predicts", "count"},
	{"core.sweep_s_est", "s"},
	{"ckpt.obs_writes", "count"},
	{"ckpt.obs_write_ms.p50", "ms"},
	{"ckpt.obs_write_ms.p99", "ms"},
	{"ckpt.write_s", "s"},
	{"ckpt.file_kb", "KB"},
	{"shard.obs_ack_ms.p50", "ms"},
	{"shard.obs_ack_ms.p99", "ms"},
	{"shard.grant_wait_ms.p50", "ms"},
	{"shard.msgs", "count"},
	{"shard.wire_mb", "MB"},
	{"shard.obs_per_s", "1/s"},
	{"shard.leases_granted", "count"},
	{"shard.leases_expired", "count"},
	{"shard.zombie_results", "count"},
	{"serve.submit_ms.p50", "ms"},
	{"serve.submit_ms.p90", "ms"},
	{"serve.queue_wait_s.p50", "s"},
	{"serve.queue_wait_s.p90", "s"},
	{"serve.run_s.p50", "s"},
	{"serve.first_unit_s.p50", "s"},
	{"serve.poll_ms.p50", "ms"},
	{"serve.front_ms.p50", "ms"},
	{"serve.manifest_kb", "KB"},
	{"serve.manifest_writes", "count"},
	{"serve.manifest_write_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// methodSlug maps a tuner to its metric name segment.
var methodSlug = map[eval.Method]string{
	eval.TCAD19: "tcad19", eval.MLCAD19: "mlcad19", eval.DAC19: "dac19",
	eval.ASPDAC20: "aspdac20", eval.PPATuner: "ppatuner",
}

// unitMethod extracts the tuner from a unit key (scenario|space|method|seed=N).
func unitMethod(key string) eval.Method {
	parts := strings.Split(key, "|")
	if len(parts) < 3 {
		return ""
	}
	return eval.Method(parts[2])
}

// spanRounds groups spans by the round span they descend from.
func spanRounds(spans []Span) map[string][]Span {
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	root := map[int64]int64{}
	var find func(id int64) int64
	find = func(id int64) int64 {
		if r, ok := root[id]; ok {
			return r
		}
		s := byID[id]
		r := id
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; ok {
				r = find(s.Parent)
			}
		}
		root[id] = r
		return r
	}
	out := map[string][]Span{}
	for _, s := range spans {
		r := byID[find(s.ID)]
		if r.Name == "round" {
			out[r.Key] = append(out[r.Key], s)
		}
	}
	return out
}

// spanLayers derives one round's per-layer values from its spans: totals
// into extra, samples into samples.
func spanLayers(spans []Span, executors int, extra map[string]float64, samples map[string][]float64) {
	self := selfTimes(spans)
	hasChild := map[int64]bool{}
	for _, s := range spans {
		hasChild[s.Parent] = true
	}
	var units []Span
	var wall float64
	for _, s := range spans {
		switch s.Name {
		case "round":
			wall = s.Dur()
		case "unit":
			units = append(units, s)
			samples["eval.unit_s"] = append(samples["eval.unit_s"], s.Dur())
			extra["tuner."+methodSlug[unitMethod(s.Key)]+".busy_s"] += self[s.ID]
		case "eval":
			// One call through the campaign's evaluator stack around a fresh
			// tool call: its self time is the checkpoint write.
			if hasChild[s.ID] {
				extra["ckpt.obs_writes"]++
				extra["ckpt.write_s"] += self[s.ID]
				samples["ckpt.obs_write_ms"] = append(samples["ckpt.obs_write_ms"], self[s.ID]*1e3)
			}
		}
	}
	if len(units) == 0 {
		return
	}
	extra["eval.units"] = float64(len(units))
	busy := lanes(units, executors)
	lo, hi := busy[0], busy[0]
	for _, b := range busy {
		lo, hi = min(lo, b), max(hi, b)
	}
	extra["eval.worker_busy_s.max"] = hi
	extra["eval.worker_busy_s.min"] = lo
	extra["eval.idle_s"] = float64(executors)*wall - sum(busy)
}

// layerMetrics assembles the per-layer metrics of a traced run.
func layerMetrics(d driver, tr *Tracer, rounds []roundStat, base roundStat, conc int) (map[string]float64, error) {
	perRound := map[string][]float64{}
	samples := map[string][]float64{}
	byRound := spanRounds(tr.Spans())
	var ppaBusy0 float64 // round 0's PPATuner busy time, which the replay covers
	for r, st := range rounds {
		extra := map[string]float64{}
		spanLayers(byRound[strconv.Itoa(r)], d.executors(), extra, samples)
		if r == 0 {
			ppaBusy0 = extra["tuner.ppatuner.busy_s"]
		}
		for k, v := range st.res.extra {
			extra[k] = v
		}
		for k, v := range extra {
			perRound[k] = append(perRound[k], v)
		}
		for k, v := range st.res.samples {
			samples[k] = append(samples[k], v...)
		}
	}
	// Layers without a hook: replay round 0's calls into them.
	var replayed map[string]float64
	if rp := rounds[0].res.replay; rp != nil {
		extra, smp, err := rp()
		if err != nil {
			return nil, err
		}
		replayed = extra
		for k, xs := range smp {
			samples[k] = append(samples[k], xs...)
		}
	}
	vals := map[string]float64{}
	for _, m := range perLayer {
		name := m.name
		if i := strings.LastIndex(name, ".p"); i > 0 && isPercentile(name[i+2:]) {
			p, _ := strconv.ParseFloat(name[i+2:], 64)
			vals[name] = pct(samples[name[:i]], p)
			continue
		}
		if vs := perRound[name]; len(vs) > 0 {
			// Rounds without a value for a per-round total had none of that
			// work: count them as zero.
			for len(vs) < len(rounds) {
				vs = append(vs, 0)
			}
			vals[name] = median(vs)
		}
	}

	for k, v := range replayed {
		vals[k] = v
	}

	// Result quality is a function of the seed: round 0 alone.
	vals["eval.hv_err"] = hvErr(rounds[0].res)

	// Surrogate replay of round 0's PPATuner units.
	var gpc gpCost
	for _, u := range rounds[0].res.gpUnits {
		c, err := replayGP(u, d.gpWorkers())
		if err != nil {
			return nil, err
		}
		gpc.add(c)
	}
	vals["gp.fit_s"], vals["gp.add_s"], vals["gp.predict_s"] = gpc.fitS, gpc.addS, gpc.predictS
	vals["gp.fits"], vals["gp.adds"], vals["gp.predicts"] = float64(gpc.fits), float64(gpc.adds), float64(gpc.predicts)
	if len(rounds[0].res.gpUnits) > 0 {
		vals["core.sweep_s_est"] = ppaBusy0 - gpc.total()
	}

	// Flow simulator: a fixed small generation, and serial runs of a fixed,
	// evenly strided sample of the target dataset's configurations.
	const flowSample = 64
	tgt := d.scenario().Target
	t0 := time.Now()
	if _, err := benchdata.Generate("layer-sample", tgt.Space, tgt.Design, benchdata.GenOptions{Points: flowSample, Seed: 7, Workers: conc}); err != nil {
		return nil, err
	}
	vals["benchdata.generate_s"] = time.Since(t0).Seconds()
	vals["benchdata.flow_runs"] = float64(len(verifyIndices(d.scenario().Source.N())) + len(verifyIndices(tgt.N())) + setupGenPoints)
	var runMS []float64
	for j := 0; j < flowSample; j++ {
		p := tgt.Points[j*tgt.N()/flowSample]
		t0 := time.Now()
		if _, _, err := pdtool.Run(tgt.Design, p.Config); err != nil {
			return nil, err
		}
		runMS = append(runMS, time.Since(t0).Seconds()*1e3)
	}
	vals["pdtool.run_ms.p50"], vals["pdtool.run_ms.p90"] = pct(runMS, 50), pct(runMS, 90)

	if base.wall > 0 {
		vals["trace.overhead_frac"] = rounds[0].wall/base.wall - 1
	}
	return vals, nil
}

func isPercentile(s string) bool { return s == "50" || s == "90" || s == "99" }
