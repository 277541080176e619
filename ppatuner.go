// Package ppatuner is the public API of the PPATuner reproduction: a
// Pareto-driven physical-design tool-parameter auto-tuner built on transfer
// Gaussian processes (Geng, Xu et al., "PPATuner: Pareto-driven Tool
// Parameter Auto-tuning in Physical Design via Gaussian Process Transfer
// Learning", DAC 2022).
//
// The package re-exports the stable surface of the internal packages:
//
//   - the tool-parameter model (Space, Config) and the Table 1 benchmark
//     spaces;
//   - the physical-design flow simulator that stands in for the commercial
//     tool (RunFlow, SmallMAC, LargeMAC);
//   - the offline benchmarks of the paper (Source1 … Target2) and dataset
//     generation;
//   - the PPATuner engine itself (NewTuner) plus the four prior-art
//     baselines used in the paper's comparison;
//   - the multi-objective metrics (Hypervolume error, ADRS) and the
//     experiment harness that regenerates Table 2, Table 3 and Figure 3.
//
// A minimal tuning session over one of the built-in benchmarks:
//
//	ds, _ := ppatuner.Target2()
//	pool := ds.UnitX()
//	objs := ds.Objectives([]ppatuner.Metric{ppatuner.Power, ppatuner.Delay})
//	tn, _ := ppatuner.NewTuner(pool,
//		func(i int) ([]float64, error) { return objs[i], nil },
//		ppatuner.TunerOptions{NumObjectives: 2, Rng: rand.New(rand.NewSource(1))})
//	res, _ := tn.Run()
//
// To tune a real tool instead, supply an Evaluator that invokes it (see
// examples/customtool).
package ppatuner

import (
	"ppatuner/internal/benchdata"
	"ppatuner/internal/clock"
	"ppatuner/internal/core"
	"ppatuner/internal/eval"
	"ppatuner/internal/gp"
	"ppatuner/internal/param"
	"ppatuner/internal/pareto"
	"ppatuner/internal/pdtool"
	"ppatuner/internal/robust"
)

// ---- Parameter spaces (Table 1) ----

// Space is an ordered set of tunable tool parameters.
type Space = param.Space

// Config is one parameter configuration in a Space.
type Config = param.Config

// Param describes one tunable tool parameter.
type Param = param.Param

// Parameter kinds.
const (
	Float = param.Float
	Int   = param.Int
	Enum  = param.Enum
	Bool  = param.Bool
)

// NewSpace builds a validated parameter space.
func NewSpace(name string, params []Param) (*Space, error) { return param.NewSpace(name, params) }

// The paper's Table 1 benchmark spaces.
var (
	Source1Space = param.Source1Space
	Target1Space = param.Target1Space
	Source2Space = param.Source2Space
	Target2Space = param.Target2Space
)

// ---- Flow simulator (the "PD tool") ----

// QoR is the post-layout quality of results (power mW, delay ns, area µm²).
type QoR = pdtool.QoR

// Metric names one QoR axis.
type Metric = pdtool.Metric

// Two of the QoR metrics; ObjSpaces lists every objective space, area
// included.
const (
	Power = pdtool.Power
	Delay = pdtool.Delay
)

// Design is a benchmark circuit.
type Design = pdtool.Design

// SmallMAC and LargeMAC return the built-in benchmark designs (panicking on
// a failed build).
var (
	SmallMAC = pdtool.SmallMAC
	LargeMAC = pdtool.LargeMAC
)

// FlowReport carries per-stage diagnostics of a flow run.
type FlowReport = pdtool.Report

// RunFlow executes the physical-design flow for one configuration and
// returns its QoR (deterministic in its inputs).
func RunFlow(d *Design, cfg Config) (QoR, *FlowReport, error) { return pdtool.Run(d, cfg) }

// ---- Offline benchmarks ----

// Dataset is an offline benchmark: configurations with golden QoR.
type Dataset = benchdata.Dataset

// DatasetPoint is one benchmark entry.
type DatasetPoint = benchdata.Point

// GenOptions controls dataset generation.
type GenOptions = benchdata.GenOptions

// GenerateDataset samples and evaluates a fresh benchmark dataset.
func GenerateDataset(name string, s *Space, d *Design, opt GenOptions) (*Dataset, error) {
	return benchdata.Generate(name, s, d, opt)
}

// The paper's four benchmarks (built on first use, cached per process).
var (
	Source1 = benchdata.Source1
	Target1 = benchdata.Target1
	Source2 = benchdata.Source2
	Target2 = benchdata.Target2
)

// ---- The tuner ----

// Evaluator returns the golden QoR objective vector of pool candidate i —
// the abstraction of one PD-tool invocation.
type Evaluator = core.Evaluator

// TunerOptions configures PPATuner; see core.Options for field docs.
type TunerOptions = core.Options

// Tuner is the PPATuner engine.
type Tuner = core.Tuner

// NewTuner builds a PPATuner over a candidate pool of normalised parameter
// points. Each objective gets its own exact transfer GP (Eq. 5–7), the
// only surrogate.
func NewTuner(pool [][]float64, e Evaluator, opt TunerOptions) (*Tuner, error) {
	return core.New(pool, e, opt)
}

// TransferFactor exposes Eq. (7): the cross-task correlation implied by the
// Gamma dissimilarity parameters (a, b).
var TransferFactor = gp.TransferFactor

// ---- Fault-tolerant evaluation ----
//
// Real PD tools fail: licences drop, runs hang, adapters crash, QoR reports
// come back corrupted. ResilientEvaluator hardens any Evaluator against all
// of that, and CampaignCheckpoint makes runs crash-safe. See DESIGN.md,
// "Fault tolerance".

// ResilientEvaluator wraps an Evaluator with deadlines, bounded retries,
// panic recovery, QoR validation and a failure policy. Pass its Evaluate
// method to NewTuner.
type ResilientEvaluator = robust.Evaluator

// ResilientOptions configures a ResilientEvaluator.
type ResilientOptions = robust.Options

// FailurePolicy decides the fate of a candidate that exhausts its retries.
type FailurePolicy = robust.FailurePolicy

// PolicySkip surrenders a candidate that exhausts its retries: the tuner
// marks it Failed and keeps tuning. ParseFailurePolicy spells the others.
const PolicySkip = robust.PolicySkip

// ParseFailurePolicy maps the CLI spelling ("retry", "skip", "abort") to a
// FailurePolicy.
var ParseFailurePolicy = robust.ParsePolicy

// FailureLog collects per-attempt failure events across a run.
type FailureLog = robust.FailureLog

// NewResilientEvaluator builds a fault-tolerant evaluator around a
// context-aware tool function; WrapEvaluator lifts a plain Evaluator.
var (
	NewResilientEvaluator = robust.New
	WrapEvaluator         = robust.Wrap
)

// CampaignCheckpoint is the crash-safe store behind resumable table
// regeneration and resumable single runs: completed (space × method ×
// seed) cells plus the mid-run observations, RNG state and iteration count
// of cells in flight. Wrap a run's evaluator with WrapCell and a killed
// run, restarted with the same seed, replays paid-for tool runs from disk
// instead of re-invoking the tool.
type CampaignCheckpoint = robust.CampaignCheckpoint

// LoadCampaignCheckpoint restores a campaign checkpoint (a missing file
// yields an empty checkpoint, serving fresh start and resume alike).
var LoadCampaignCheckpoint = robust.LoadCampaignCheckpoint

// CircuitBreaker converts per-call failures into a run-level "the
// infrastructure is down" signal; ResilientOptions.Breaker and
// Campaign.Breaker take one.
type CircuitBreaker = robust.Breaker

// Clock abstracts wall-clock access (now/sleep) for the fault-tolerance
// stack; ResilientOptions.Clock takes one.
type Clock = clock.Clock

// ---- Multi-objective metrics ----

// Dominates reports Pareto dominance (minimisation).
var Dominates = pareto.Dominates

// ParetoFront returns the non-dominated subset of the points.
var ParetoFront = pareto.FrontPoints

// Hypervolume computes the dominated hyper-volume against a reference point.
var Hypervolume = pareto.Hypervolume

// HVError computes the hyper-volume error of Eq. (2).
var HVError = pareto.HVError

// ADRS computes the average distance from reference set of Eq. (3).
var ADRS = pareto.ADRS

// ReferencePoint derives a hyper-volume reference point from a point cloud.
var ReferencePoint = pareto.ReferencePoint

// ---- Experiment harness (Tables 2–3, Figure 3) ----

// Harness re-exports the experiment harness package-level API.
type (
	// Scenario couples a source and target benchmark.
	Scenario = eval.Scenario
	// ObjSpace is one of the paper's objective spaces.
	ObjSpace = eval.ObjSpace
	// HarnessMethod identifies one of the five compared tuners.
	HarnessMethod = eval.Method
	// HarnessRunOpts carries optional harness knobs (evaluator middleware,
	// engine workers, a checkpointable random source).
	HarnessRunOpts = eval.RunOpts
	// Campaign is a resumable, parallel table regeneration: every
	// (space × method × seed) cell is an independent work unit executed
	// concurrently and, with a CampaignCheckpoint attached, persisted so a
	// killed run resumes bit-identically.
	Campaign = eval.Campaign
	// CampaignUnit is one campaign work item.
	CampaignUnit = eval.Unit
	// CampaignUnitResult is one unit's scored outcome.
	CampaignUnitResult = eval.UnitResult
)

// Harness functions.
var (
	ScenarioOne = eval.ScenarioOne
	ScenarioTwo = eval.ScenarioTwo
	ObjSpaces   = eval.Spaces
	Methods     = eval.Methods
	Figure3     = eval.Figure3
	Figure3Opts = eval.Figure3Opts
)
