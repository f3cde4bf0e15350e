package service_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// memLog is an in-memory JobBackend that keeps its records, JSON-encoded as
// the disk store keeps them, so every replay decodes fresh values.
type memLog struct {
	mu   sync.Mutex
	recs [][]byte
}

func (l *memLog) AppendWAL(rec *service.WALRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, b)
	return nil
}

func (l *memLog) ReplayWAL(fn func(service.WALRecord) error) error {
	l.mu.Lock()
	recs := slices.Clone(l.recs)
	l.mu.Unlock()
	for _, b := range recs {
		var rec service.WALRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

func (l *memLog) CompactWAL(recs []*service.WALRecord) error {
	out := make([][]byte, 0, len(recs))
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		out = append(out, b)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = out
	return nil
}

func (l *memLog) SyncWAL() error { return nil }

// fuzzWAL decodes data into a job log of the record shapes the engine
// writes, over four job IDs, with seqs ascending from 1. Each record takes
// two bytes: the first picks the kind (low three bits) and the job (next
// two), the second the variant — the job's tenant ("", the default or a
// second tenant), type and spec version; whether a checkpoint carries its
// level; a terminal state (done, failed or canceled) with or without a
// result; a marker's job-ID counter. A job gets at most one submission
// record.
func fuzzWAL(data []byte) []service.WALRecord {
	created := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	finished := created.Add(time.Minute)
	tenants := []string{"", service.DefaultTenant, "acme"}
	types := []service.JobType{service.JobFREDSweep, service.JobAnonymize, service.JobAssess}
	states := []service.JobState{service.StateDone, service.StateFailed, service.StateCanceled}
	submitted := map[string]service.WALRecord{}
	levels := map[string][]service.LevelSummary{}
	var recs []service.WALRecord
	for i := 0; i+1 < len(data); i += 2 {
		op, v := data[i], data[i+1]
		n := int(op>>3) % 4
		id := fmt.Sprintf("job-%d", n+1)
		rec := service.WALRecord{Seq: uint64(len(recs) + 1), JobID: id}
		switch op & 7 {
		case 0:
			if _, ok := submitted[id]; ok {
				continue
			}
			typ := types[int(v>>2)%3]
			spec := service.Spec{
				Type: typ, Table: "tbl-1", Aux: "tbl-2", Scheme: "mdav", K: 2,
				SensitiveLo: 40000, SensitiveHi: 160000,
			}
			if typ == service.JobFREDSweep {
				spec.K, spec.MinK, spec.MaxK = 0, 2, 10
			}
			rec.Kind, rec.JobSeq, rec.Tenant, rec.Spec, rec.Created = service.WALJob, n+1, tenants[v%3], &spec, &created
			if v&16 != 0 {
				rec.Ver = 2
			}
			submitted[id] = rec
		case 2:
			st := service.Status{
				ID: id, Tenant: submitted[id].Tenant, State: states[v%3],
				Created: created, Finished: &finished, Levels: slices.Clone(levels[id]),
			}
			if sub, ok := submitted[id]; ok {
				st.Type = sub.Spec.Type
			}
			switch st.State {
			case service.StateFailed:
				st.Error = "boom"
			case service.StateCanceled:
				st.Error = "canceled"
			}
			rec.Kind, rec.Status = service.WALStatus, &st
			if v&4 != 0 {
				rec.Result = &service.ResultRecord{Levels: st.Levels, OptimalK: 2, Hmax: 1, Evaluated: len(st.Levels)}
			}
		case 3:
			rec.Kind = service.WALCancel
		case 4:
			rec.Kind = service.WALDelete
		case 5:
			rec.Kind, rec.JobID, rec.JobSeq = service.WALMark, "", int(v%8)
		default:
			rec.Kind, rec.Progress = service.WALLevel, float64(v)/256
			if v&1 == 0 {
				ls := service.LevelSummary{K: len(levels[id]) + 2, After: float64(v), Utility: 1 / float64(v+1)}
				levels[id] = append(levels[id], ls)
				rec.Level = &ls
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// recoverOn recovers a fresh engine over an empty store from log. Its
// interrupted jobs cannot resolve their tables, so they finish failed.
func recoverOn(t *testing.T, log service.JobBackend) *service.Engine {
	t.Helper()
	e := service.NewEngine(service.NewStore(), service.Options{Workers: 1, JobLog: log})
	if _, err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	return e
}

// listing is what tenant's job list shows of each job: ID, state, error,
// level ks, Resumed and whether a result is present.
func listing(e *service.Engine, tenant string) []string {
	var out []string
	for _, st := range e.Jobs(tenant) {
		ks := make([]int, len(st.Levels))
		for i, ls := range st.Levels {
			ks[i] = ls.K
		}
		_, err := e.Result(tenant, st.ID)
		out = append(out, fmt.Sprintf("%s %s %q ks=%v resumed=%v result=%v",
			st.ID, st.State, st.Error, ks, st.Resumed, err == nil))
	}
	return out
}

// FuzzRecoverRoundTrip: an engine that recovers a job log, then a second
// engine that recovers the log the first one left (its boot compaction plus
// the terminal records of the jobs it re-submitted), list the same jobs for
// every tenant.
func FuzzRecoverRoundTrip(f *testing.F) {
	// Ops: kind | job<<3. Kinds: 0 job, 2 status, 3 cancel, 4 delete,
	// 5 mark, the rest a level.
	done := []byte{0, 1, 1, 0, 1, 2, 1, 0, 2, 6}         // default tenant, done with a result
	interrupted := []byte{8, 2, 9, 1, 9, 0, 9, 4}        // second tenant, a checkpoint without its level
	canceling := []byte{16, 0, 17, 0, 19, 0, 17, 2}      // pre-tenancy, cancel without its terminal record
	deleted := []byte{24, 5, 26, 1, 28, 0}               // anonymize, failed, then deleted
	marked := []byte{5, 7, 0, 8, 1, 0, 2, 2, 1, 0, 3, 0} // marker; assess canceled, then a level and a cancel
	early := []byte{3, 0, 2, 2, 0, 2, 8, 1, 9, 0, 10, 4} // cancel and status before the submission
	for _, seed := range [][]byte{done, interrupted, canceling, deleted, marked, early,
		slices.Concat(done, interrupted, canceling, deleted, marked)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		log := &memLog{}
		for _, rec := range fuzzWAL(data) {
			if err := log.AppendWAL(&rec); err != nil {
				t.Fatal(err)
			}
		}
		first := recoverOn(t, log)
		second := recoverOn(t, log)
		for _, tenant := range []string{"", service.DefaultTenant, "acme"} {
			if a, b := listing(first, tenant), listing(second, tenant); !slices.Equal(a, b) {
				t.Fatalf("tenant %q: after one recovery\n%v\nafter two\n%v", tenant, a, b)
			}
		}
	})
}
