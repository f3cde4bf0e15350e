package service

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/risk"
)

// JobType names the workloads the engine runs. Each maps onto one paper
// operation: anonymize (Basic_Anonymization), attack (the Section 3 fusion
// attack), fred-sweep (Algorithm 1 over a level range), assess (the
// record-level disclosure report).
type JobType string

// The supported job types.
const (
	JobAnonymize JobType = "anonymize"
	JobAttack    JobType = "attack"
	JobFREDSweep JobType = "fred-sweep"
	JobAssess    JobType = "assess"
)

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states. Terminal states are done, failed and canceled.
const (
	StatePending  JobState = "pending"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec is a job request. Table (and Aux, where used) reference tables
// previously stored via Store.Put / POST /v1/tables.
type Spec struct {
	// Type selects the workload. Required.
	Type JobType `json:"type"`
	// Table is the private table P. Required.
	Table string `json:"table"`
	// Aux is the adversary's web-gathered table Q, row-aligned with P.
	// Optional: omitting it simulates an adversary without web access.
	Aux string `json:"aux,omitempty"`
	// Scheme selects Basic_Anonymization: "mdav" (default) or "mondrian".
	Scheme string `json:"scheme,omitempty"`
	// K is the anonymization level for anonymize/attack/assess jobs.
	K int `json:"k,omitempty"`
	// MinK and MaxK bound a fred-sweep (defaults 2 and 16).
	MinK int `json:"min_k,omitempty"`
	MaxK int `json:"max_k,omitempty"`
	// KSet, when non-empty, replaces the MinK..MaxK range with an explicit
	// level set (sorted and deduplicated; every entry ≥ 2, at least two
	// entries). Mutually exclusive with Stride. fred-sweep only; implies the
	// adaptive planner.
	KSet []int `json:"k_set,omitempty"`
	// Stride > 1 thins the MinK..MaxK range to every stride-th level.
	// fred-sweep only; implies the adaptive planner.
	Stride int `json:"stride,omitempty"`
	// BudgetMS > 0 bounds the sweep's wall clock: the planner orders levels
	// by expected information gain and stops at the deadline, finishing the
	// job with the best series obtainable in the budget and Result.Partial
	// set. fred-sweep only; implies the adaptive planner.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// Adaptive lets the planner skip levels of a plain range sweep: with
	// explicit thresholds it scans upward to the Tu crossing, checks the
	// skip with utility-only probes at bisection's probe points, and
	// leaves the levels above unevaluated (the decision is bit-identical —
	// see internal/core/planner). Every sweep runs on the planner; without
	// Adaptive (or KSet, Stride or BudgetMS, which imply it) it walks the
	// whole range in ascending k.
	Adaptive bool `json:"adaptive,omitempty"`
	// Tp and Tu are the FRED thresholds; both zero auto-calibrates from
	// the sweep the way the paper did from experimental observations,
	// which needs core.MinCalibrationLevels levels the table can reach:
	// Submit refuses a sweep with fewer.
	Tp float64 `json:"tp,omitempty"`
	Tu float64 `json:"tu,omitempty"`
	// SensitiveLo and SensitiveHi give the publicly known range of the
	// sensitive attribute. Required for attack, fred-sweep and assess.
	SensitiveLo float64 `json:"sensitive_lo,omitempty"`
	SensitiveHi float64 `json:"sensitive_hi,omitempty"`
}

// withDefaults returns the spec with defaulted fields filled in, so cache
// keys for equivalent requests collide.
func (sp Spec) withDefaults() Spec {
	if sp.Scheme == "" {
		sp.Scheme = "mdav"
	}
	if sp.Type == JobFREDSweep {
		if len(sp.KSet) > 0 {
			// An explicit set replaces the range; canonicalize it (and let
			// the range bounds mirror it) so equivalent submissions share a
			// cache key.
			sp.KSet = slices.Compact(slices.Sorted(slices.Values(sp.KSet)))
			sp.MinK, sp.MaxK = sp.KSet[0], sp.KSet[len(sp.KSet)-1]
		}
		if sp.MinK == 0 {
			sp.MinK = 2
		}
		if sp.MaxK == 0 {
			sp.MaxK = 16
		}
	}
	return sp
}

// adaptive reports whether the planner may skip levels and streams warm
// levels ahead of computed ones: an explicit opt-in, or any selection a
// plain range cannot express.
func (sp Spec) adaptive() bool {
	return sp.Adaptive || len(sp.KSet) > 0 || sp.Stride > 1 || sp.BudgetMS > 0
}

// validate checks everything that does not need the referenced tables.
func (sp Spec) validate() error {
	switch sp.Type {
	case JobAnonymize, JobAttack, JobFREDSweep, JobAssess:
	case "":
		return fmt.Errorf("service: job needs a type (one of %s, %s, %s, %s)",
			JobAnonymize, JobAttack, JobFREDSweep, JobAssess)
	default:
		return fmt.Errorf("service: unknown job type %q", sp.Type)
	}
	if sp.Table == "" {
		return fmt.Errorf("service: job needs a table")
	}
	switch sp.Scheme {
	case "mdav", "mondrian":
	default:
		return fmt.Errorf("service: unknown anonymization scheme %q (want mdav or mondrian)", sp.Scheme)
	}
	switch sp.Type {
	case JobAnonymize, JobAttack, JobAssess:
		if sp.K < 2 {
			return fmt.Errorf("service: %s job needs k ≥ 2, got %d", sp.Type, sp.K)
		}
	case JobFREDSweep:
		if sp.MinK < 2 || sp.MaxK < sp.MinK {
			return fmt.Errorf("service: invalid sweep range [%d, %d]", sp.MinK, sp.MaxK)
		}
		if len(sp.KSet) > 0 {
			if sp.Stride > 1 {
				return fmt.Errorf("service: k_set and stride are mutually exclusive")
			}
			if len(sp.KSet) < 2 {
				return fmt.Errorf("service: k_set needs at least 2 levels, got %d", len(sp.KSet))
			}
			for _, k := range sp.KSet {
				if k < 2 {
					return fmt.Errorf("service: k_set level %d below the minimal k = 2", k)
				}
			}
		}
		if sp.Stride < 0 {
			return fmt.Errorf("service: negative stride %d", sp.Stride)
		}
		if sp.BudgetMS < 0 {
			return fmt.Errorf("service: negative budget_ms %d", sp.BudgetMS)
		}
	}
	if sp.Type != JobFREDSweep && (len(sp.KSet) > 0 || sp.Stride != 0 || sp.BudgetMS != 0 || sp.Adaptive) {
		return fmt.Errorf("service: k_set/stride/budget_ms/adaptive apply to %s jobs only", JobFREDSweep)
	}
	if sp.Type != JobAnonymize && sp.SensitiveHi <= sp.SensitiveLo {
		return fmt.Errorf("service: %s job needs a sensitive range (sensitive_lo < sensitive_hi)", sp.Type)
	}
	return nil
}

// cacheKey canonicalizes the spec plus the content hashes of its input
// tables. Two submissions with byte-identical tables and an equivalent spec
// share a key — the "repeated FRED sweeps served from cache" contract.
func (sp Spec) cacheKey(pHash, auxHash string) string {
	key := fmt.Sprintf("%s|%s|%s|%s|k%d|%d-%d|tp%g|tu%g|%g-%g",
		sp.Type, pHash, auxHash, sp.Scheme, sp.K, sp.MinK, sp.MaxK, sp.Tp, sp.Tu,
		sp.SensitiveLo, sp.SensitiveHi)
	if sp.adaptive() {
		// Adaptive selections extend the key only when present, so every
		// pre-existing classic spec keeps its key (and its cache entries).
		key += fmt.Sprintf("|set%v|s%d|b%d", sp.KSet, sp.Stride, sp.BudgetMS)
	}
	return key
}

// levelKey identifies the per-table level series the cross-job warm-start
// index is keyed by: everything that determines a level's numbers — the
// table contents, the adversary's table, the scheme and the sensitive range
// — and nothing that merely selects levels (range, set, stride, thresholds,
// budget). Two sweeps of the same table agreeing on this key may exchange
// computed levels verbatim.
func (sp Spec) levelKey(pHash, auxHash string) string {
	return fmt.Sprintf("%s|%s|%s|%g-%g", pHash, auxHash, sp.Scheme, sp.SensitiveLo, sp.SensitiveHi)
}

// Status is the externally visible state of a job. It is a value snapshot —
// safe to hand across goroutines and to serialize.
type Status struct {
	ID string `json:"id"`
	// Tenant is the namespace the job runs in — assigned from the
	// authenticated caller, never from the spec.
	Tenant string   `json:"tenant,omitempty"`
	Type   JobType  `json:"type"`
	State  JobState `json:"state"`
	// Progress advances 0 → 1 while running.
	Progress float64 `json:"progress"`
	// Cached reports that the result was served from the LRU cache.
	Cached bool `json:"cached,omitempty"`
	// Resumed reports that the job was interrupted by a crash and
	// re-submitted by Engine.Recover — fred-sweeps keep every level they
	// checkpointed and compute only the rest rather than restarting.
	Resumed bool   `json:"resumed,omitempty"`
	Error   string `json:"error,omitempty"`
	// Summary carries the headline numbers of a finished job (optimal k,
	// dissimilarities, breach rates, …) keyed by metric name.
	Summary map[string]float64 `json:"summary,omitempty"`
	// Levels holds the per-level partial results of a fred-sweep, appended
	// as each level completes — a poll mid-sweep sees the series so far. On
	// completion it is replaced by the final summaries, whose candidate
	// flags reflect the (possibly auto-calibrated) thresholds.
	Levels   []LevelSummary `json:"levels,omitempty"`
	Created  time.Time      `json:"created"`
	Started  *time.Time     `json:"started,omitempty"`
	Finished *time.Time     `json:"finished,omitempty"`
}

// LevelSummary is the JSON-friendly projection of one core.LevelResult —
// the per-level numbers without the table payloads.
type LevelSummary struct {
	K         int     `json:"k"`
	Before    float64 `json:"before"`
	After     float64 `json:"after"`
	Gain      float64 `json:"gain"`
	Utility   float64 `json:"utility"`
	Candidate bool    `json:"candidate"`
	// Phase breakdown of the level's compute time, in nanoseconds:
	// anonymization, fusion attack, utility metric. Observational only;
	// omitted on warm-started levels replayed from the index (their compute
	// happened in an earlier job).
	AnonymizeNS int64 `json:"anonymize_ns,omitempty"`
	FuseNS      int64 `json:"fuse_ns,omitempty"`
	MetricsNS   int64 `json:"metrics_ns,omitempty"`
}

// Result is a finished job's payload. Table is the downloadable artifact
// (the release for anonymize, P̂ for attack, the optimal release for
// fred-sweep); the other fields are populated per job type.
type Result struct {
	// Table is the primary output table, nil only for assess jobs.
	Table *dataset.Table
	// Levels is the fred-sweep series (Figures 4–7).
	Levels []LevelSummary
	// OptimalK and Hmax are Algorithm 1's argmax for fred-sweep jobs.
	OptimalK int
	Hmax     float64
	// Tp and Tu echo the thresholds used (auto-calibrated when the spec
	// left them zero).
	Tp, Tu float64
	// Evaluated counts the levels this job actually computed — excluding
	// warm-started and planner-skipped levels — for fred-sweep jobs.
	Evaluated int
	// Partial reports a budget-bound sweep that hit its deadline: Levels is
	// the best series obtainable in the budget, not the full request.
	Partial bool
	// Before and After are the pre/post-fusion dissimilarities for attack
	// jobs.
	Before, After float64
	// Assessment is the record-level disclosure report for assess jobs.
	Assessment *risk.Assessment
}

// summarize flattens the headline numbers into a Status summary map.
func (r *Result) summarize(t JobType) map[string]float64 {
	m := make(map[string]float64)
	switch t {
	case JobAnonymize:
		m["rows"] = float64(r.Table.NumRows())
	case JobAttack:
		m["before"] = r.Before
		m["after"] = r.After
		m["gain"] = r.Before - r.After
	case JobFREDSweep:
		m["optimal_k"] = float64(r.OptimalK)
		m["h_max"] = r.Hmax
		m["levels"] = float64(len(r.Levels))
		m["levels_evaluated"] = float64(r.Evaluated)
		m["tp"] = r.Tp
		m["tu"] = r.Tu
		if r.Partial {
			m["partial"] = 1
		}
	case JobAssess:
		m["breach10"] = r.Assessment.Breach10
		m["breach20"] = r.Assessment.Breach20
		m["class3"] = r.Assessment.Class3
		m["baseline_class3"] = r.Assessment.BaselineClass3
		m["rank_exposure"] = r.Assessment.Rank
	}
	return m
}

func summarizeLevel(lr core.LevelResult) LevelSummary {
	return LevelSummary{
		K: lr.K, Before: lr.Before, After: lr.After,
		Gain: lr.Gain, Utility: lr.Utility, Candidate: lr.Candidate,
		AnonymizeNS: int64(lr.AnonymizeTime),
		FuseNS:      int64(lr.FuseTime),
		MetricsNS:   int64(lr.MetricsTime),
	}
}

func summarizeLevels(levels []core.LevelResult) []LevelSummary {
	out := make([]LevelSummary, len(levels))
	for i, lr := range levels {
		out[i] = summarizeLevel(lr)
	}
	return out
}
