package diskstore_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/microagg"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/diskstore"
)

// walSegments returns dir's WAL segment files in sequence order. Names are
// zero-padded (jobs-00000001.wal), so a string sort is the numeric order.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "jobs-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

// activeWALPath returns dir's newest WAL segment — the file AppendWAL is
// writing. Tests forging crash images must target it, not the legacy
// jobs.wal name.
func activeWALPath(t *testing.T, dir string) string {
	t.Helper()
	segs := walSegments(t, dir)
	if len(segs) == 0 {
		t.Fatalf("no WAL segments in %s", dir)
	}
	return segs[len(segs)-1]
}

// openPlane opens a full disk-backed storage plane on dir: disk store,
// table store (loaded), engine (not yet recovered or started).
func openPlane(t *testing.T, dir string, opts service.Options) (*diskstore.Store, *service.Store, *service.Engine) {
	t.Helper()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	store := service.NewStoreWith(ds)
	if err := store.Open(); err != nil {
		t.Fatal(err)
	}
	opts.JobLog = ds
	engine := service.NewEngine(store, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		engine.Shutdown(ctx)
	})
	return ds, store, engine
}

func fingerprintHex(t *testing.T, tab *dataset.Table) string {
	t.Helper()
	h, err := service.HashTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func waitDone(t *testing.T, e *service.Engine, id string) service.Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := e.Wait(ctx, service.DefaultTenant, id)
	if err != nil {
		t.Fatalf("wait %s: %v (state %s)", id, err, st.State)
	}
	return st
}

func sweepSpec(p, q string) service.Spec {
	return service.Spec{
		Type: service.JobFREDSweep, Table: p, Aux: q,
		MinK: 2, MaxK: 10,
		SensitiveLo: 40000, SensitiveHi: 160000,
	}
}

// runUninterrupted runs one fred-sweep to completion on a fresh disk plane
// and returns the data dir, the job ID, the final status and result.
func runUninterrupted(t *testing.T) (string, string, service.Status, *service.Result) {
	t.Helper()
	return runSpecUninterrupted(t, repro.ScenarioOptions{Seed: 42, N: 30},
		service.Options{Workers: 2, SweepWorkers: 2}, sweepSpec)
}

// runSpecUninterrupted is runUninterrupted for the fred-sweep spec builds
// over the scenario sopts describes, on an engine configured by opts.
func runSpecUninterrupted(t *testing.T, sopts repro.ScenarioOptions, opts service.Options, spec func(p, q string) service.Spec) (string, string, service.Status, *service.Result) {
	t.Helper()
	dir := t.TempDir()
	sc, err := repro.UniversityScenario(sopts)
	if err != nil {
		t.Fatal(err)
	}
	ds, store, engine := openPlane(t, dir, opts)
	pInfo, err := store.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	qInfo, err := store.Put(service.DefaultTenant, "Q", sc.Q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Recover(); err != nil {
		t.Fatal(err)
	}
	engine.Start()
	st, err := engine.Submit(service.DefaultTenant, spec(pInfo.ID, qInfo.ID))
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, engine, st.ID)
	if st.State != service.StateDone {
		t.Fatalf("state %s (%s), want done", st.State, st.Error)
	}
	res, err := engine.Result(service.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Shut down and release the directory cleanly so the test can
	// manipulate it and reopen — the lock refuses concurrent opens.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := engine.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, st.ID, st, res
}

// TestDiskTableBackendRoundTrip: tables persisted on one plane reload on
// the next with bit-identical fingerprints; deletes drop the files.
func TestDiskTableBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 7, N: 20})
	if err != nil {
		t.Fatal(err)
	}
	ds1, store1, _ := openPlane(t, dir, service.Options{Workers: 1})
	pInfo, err := store1.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	qInfo, err := store1.Put(service.DefaultTenant, "Q", sc.Q)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds1.Close(); err != nil {
		t.Fatal(err)
	}

	_, store2, _ := openPlane(t, dir, service.Options{Workers: 1})
	list := store2.List(service.DefaultTenant)
	if len(list) != 2 {
		t.Fatalf("reloaded %d tables, want 2", len(list))
	}
	p2, p2Info, err := store2.Get(service.DefaultTenant, pInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p2Info.Hash != pInfo.Hash || fingerprintHex(t, p2) != pInfo.Hash {
		t.Fatal("reloaded table's fingerprint changed")
	}
	if !p2.Equal(sc.P) {
		t.Fatal("reloaded table differs cellwise from the upload")
	}
	// A fresh Put must not collide with recovered IDs.
	extra, err := store2.Put(service.DefaultTenant, "extra", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	if extra.ID == pInfo.ID || extra.ID == qInfo.ID {
		t.Fatalf("recovered store reissued handle %s", extra.ID)
	}
	// Deleting one of two tables sharing a hash must keep the snapshot.
	if err := store2.Delete(service.DefaultTenant, extra.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store2.Get(service.DefaultTenant, pInfo.ID); err != nil {
		t.Fatalf("delete of duplicate removed the survivor: %v", err)
	}
	if err := store2.Delete(service.DefaultTenant, pInfo.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tables", service.DefaultTenant, pInfo.Hash+".snap")); !os.IsNotExist(err) {
		t.Fatal("last delete of a hash left its snapshot file behind")
	}
}

// TestDiskWALReplayToleratesTornTail: a crash mid-append leaves a torn
// final line; replay keeps everything before it and ends cleanly.
func TestDiskWALReplayToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := ds.AppendWAL(&service.WALRecord{Seq: uint64(i), Kind: service.WALDelete, JobID: "job-x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a partial record without its newline.
	f, err := os.OpenFile(activeWALPath(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"kind":"st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ds2, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	var seqs []uint64
	if err := ds2.ReplayWAL(func(rec service.WALRecord) error {
		seqs = append(seqs, rec.Seq)
		return nil
	}); err != nil {
		t.Fatalf("torn tail must not fail replay: %v", err)
	}
	if len(seqs) != 3 || seqs[2] != 3 {
		t.Fatalf("replayed seqs %v, want [1 2 3]", seqs)
	}
}

// TestRecoverRestoresTerminalJobsDisk: a restart after a clean run restores
// the finished job — status, levels, result table — and identical
// resubmissions hit the re-seeded cache.
func TestRecoverRestoresTerminalJobsDisk(t *testing.T) {
	dir, jobID, want, wantRes := runUninterrupted(t)
	wantHash := fingerprintHex(t, wantRes.Table)

	_, store, engine := openPlane(t, dir, service.Options{Workers: 2, SweepWorkers: 2})
	recovered, err := engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	engine.Start()
	if len(recovered) != 1 || recovered[0].Resumed {
		t.Fatalf("recovered %+v, want one non-resumed terminal job", recovered)
	}
	st, err := engine.Job(service.DefaultTenant, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || len(st.Levels) != len(want.Levels) {
		t.Fatalf("recovered job: state %s with %d levels, want done with %d", st.State, len(st.Levels), len(want.Levels))
	}
	res, err := engine.Result(service.DefaultTenant, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalK != wantRes.OptimalK ||
		math.Float64bits(res.Hmax) != math.Float64bits(wantRes.Hmax) ||
		math.Float64bits(res.Tp) != math.Float64bits(wantRes.Tp) ||
		math.Float64bits(res.Tu) != math.Float64bits(wantRes.Tu) {
		t.Fatalf("recovered result scalars differ: %+v vs %+v", res, wantRes)
	}
	if res.Table == nil || fingerprintHex(t, res.Table) != wantHash {
		t.Fatal("recovered result table is not byte-identical to the original")
	}
	// The cache was re-seeded: an identical submission is an instant hit.
	tables := store.List(service.DefaultTenant)
	st2, err := engine.Submit(service.DefaultTenant, sweepSpec(tables[0].ID, tables[1].ID))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("identical post-restart submission missed the re-seeded cache")
	}
}

// jobRecordVers returns the spec version of every job record in dir's WAL,
// in replay order.
func jobRecordVers(t *testing.T, dir string) []int {
	t.Helper()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var vers []int
	err = ds.ReplayWAL(func(rec service.WALRecord) error {
		if rec.Kind == service.WALJob {
			vers = append(vers, rec.Ver)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vers
}

// TestRecoverKeepsSpecVersionDisk: the log Recover compacts to keeps the
// job record's spec version, so a downgraded build still refuses a spec it
// cannot honour after any number of restarts.
func TestRecoverKeepsSpecVersionDisk(t *testing.T) {
	dir, _, _, _ := runUninterrupted(t)
	want := jobRecordVers(t, dir)
	if len(want) != 1 || want[0] == 0 {
		t.Fatalf("submitted job records carry versions %v, want one nonzero", want)
	}
	for restart := 1; restart <= 2; restart++ {
		ds, _, engine := openPlane(t, dir, service.Options{Workers: 1})
		if _, err := engine.Recover(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := engine.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		if got := jobRecordVers(t, dir); !slices.Equal(got, want) {
			t.Fatalf("after restart %d the job records carry versions %v, want %v", restart, got, want)
		}
	}
}

// TestRecoverRefusesNewerSpecVersionDisk: a job record written under a
// newer spec vocabulary than this build's fails recovery loudly instead of
// replaying a spec whose unknown fields were dropped.
func TestRecoverRefusesNewerSpecVersionDisk(t *testing.T) {
	created := time.Now().Round(0)
	dir := craftWAL(t, func(p, q string) []service.WALRecord {
		spec := sweepSpec(p, q)
		return []service.WALRecord{
			{Seq: 1, Kind: service.WALJob, Ver: 1 << 20, JobID: "job-1", JobSeq: 1, Spec: &spec, Created: &created},
		}
	})
	_, _, engine := openPlane(t, dir, service.Options{Workers: 1})
	if _, err := engine.Recover(); err == nil || !strings.Contains(err.Error(), "spec version") {
		t.Fatalf("Recover: err %v, want the spec version refusal", err)
	}
}

// truncateWAL rewrites dir's active WAL segment keeping the submission record
// and the first keepLevels checkpoints of jobID — the exact on-disk image a
// SIGKILL between the keepLevels'th and the next checkpoint leaves behind.
func truncateWAL(t *testing.T, dir, jobID string, keepLevels int) {
	t.Helper()
	if kept := cutWAL(t, dir, jobID, func(i int) bool { return i < keepLevels }); len(kept) != keepLevels {
		t.Fatalf("WAL held %d level checkpoints, want ≥ %d to build the crash image", len(kept), keepLevels)
	}
}

// cutWAL rewrites dir's active WAL segment to a crash image of jobID: its
// submission record and the level checkpoints whose append index i passes
// keep, nothing else. It returns the kept checkpoints' ks in append order.
func cutWAL(t *testing.T, dir, jobID string, keep func(i int) bool) []int {
	t.Helper()
	path := activeWALPath(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var kept []int
	levels := 0
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec service.WALRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.JobID != jobID {
			continue
		}
		switch rec.Kind {
		case service.WALJob:
		case service.WALLevel:
			levels++
			if !keep(levels - 1) {
				continue
			}
			kept = append(kept, rec.Level.K)
		default:
			continue
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return kept
}

// TestRecoverResumesInterruptedSweepDisk is the crash-recovery acceptance
// test: a fred-sweep killed after two checkpointed levels (the WAL image a
// SIGKILL mid-sweep leaves) is re-submitted on the next boot holding those
// levels, continues from level three, and finishes with a final level
// series, candidate flags and release table byte-identical to the
// uninterrupted run.
func TestRecoverResumesInterruptedSweepDisk(t *testing.T) {
	dir, jobID, want, wantRes := runUninterrupted(t)
	wantHash := fingerprintHex(t, wantRes.Table)
	const checkpointed = 2
	truncateWAL(t, dir, jobID, checkpointed)

	_, _, engine := openPlane(t, dir, service.Options{Workers: 2, SweepWorkers: 2})
	recovered, err := engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || !recovered[0].Resumed {
		t.Fatalf("recovered %+v, want one resumed job", recovered)
	}
	if got := recovered[0].Status; got.ID != jobID || !got.Resumed || len(got.Levels) != checkpointed {
		t.Fatalf("resumed job snapshot %+v, want %s seeded with %d levels", got, jobID, checkpointed)
	}

	// Subscribe before starting the workers: the stream must replay the two
	// checkpointed levels (original seqs) and then deliver only the resumed
	// tail live — never a duplicate of the prefix.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	events, err := engine.Stream(ctx, service.DefaultTenant, jobID)
	if err != nil {
		t.Fatal(err)
	}
	engine.Start()

	var ks []int
	var lastSeq uint64
	for ev := range events {
		if ev.Type == service.EventLevel {
			ks = append(ks, ev.Level.K)
			if ev.Seq <= lastSeq {
				t.Fatalf("event seqs not increasing: %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
		}
		if ev.Type == service.EventStatus {
			break
		}
	}
	for i, k := range ks {
		if k != i+2 {
			t.Fatalf("streamed ks %v: resumed feed is not the gap-free full series", ks)
		}
	}
	if len(ks) != len(want.Levels) {
		t.Fatalf("streamed %d levels, want %d", len(ks), len(want.Levels))
	}

	st := waitDone(t, engine, jobID)
	if st.State != service.StateDone {
		t.Fatalf("resumed job state %s (%s), want done", st.State, st.Error)
	}
	if !st.Resumed {
		t.Fatal("finished job lost its resumed marker")
	}

	res, err := engine.Result(service.DefaultTenant, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != len(wantRes.Levels) {
		t.Fatalf("resumed run swept %d levels, uninterrupted %d", len(res.Levels), len(wantRes.Levels))
	}
	for i := range res.Levels {
		a, b := res.Levels[i], wantRes.Levels[i]
		if a.K != b.K || a.Candidate != b.Candidate ||
			math.Float64bits(a.Before) != math.Float64bits(b.Before) ||
			math.Float64bits(a.After) != math.Float64bits(b.After) ||
			math.Float64bits(a.Gain) != math.Float64bits(b.Gain) ||
			math.Float64bits(a.Utility) != math.Float64bits(b.Utility) {
			t.Fatalf("level %d differs after resume:\n got %+v\nwant %+v", i, a, b)
		}
	}
	if res.OptimalK != wantRes.OptimalK ||
		math.Float64bits(res.Hmax) != math.Float64bits(wantRes.Hmax) ||
		math.Float64bits(res.Tp) != math.Float64bits(wantRes.Tp) ||
		math.Float64bits(res.Tu) != math.Float64bits(wantRes.Tu) {
		t.Fatalf("resumed decision differs: k=%d H=%g vs k=%d H=%g", res.OptimalK, res.Hmax, wantRes.OptimalK, wantRes.Hmax)
	}
	if fingerprintHex(t, res.Table) != wantHash {
		t.Fatal("resumed run's release table is not byte-identical to the uninterrupted run's")
	}
}

// TestRecoverResumedJobIsTracedDisk: a crash-resumed fred-sweep runs under
// its own identity, as a submitted one does, so its trace holds the job.run
// span and the planner.plan and sweep.level spans of the levels it computes.
func TestRecoverResumedJobIsTracedDisk(t *testing.T) {
	dir, jobID, _, _ := runUninterrupted(t)
	truncateWAL(t, dir, jobID, 2)

	tracer := obs.NewTracer(obs.DefaultTraceCapacity)
	_, _, engine := openPlane(t, dir, service.Options{Workers: 1, SweepWorkers: 1, Tracer: tracer})
	if _, err := engine.Recover(); err != nil {
		t.Fatal(err)
	}
	engine.Start()
	if st := waitDone(t, engine, jobID); st.State != service.StateDone || !st.Resumed {
		t.Fatalf("resumed job state %s (resumed %v), want done and resumed", st.State, st.Resumed)
	}
	spans := make(map[string]int)
	for _, sp := range tracer.Spans(jobID) {
		spans[sp.Name]++
	}
	for _, name := range []string{"job.run", "planner.plan", "sweep.level"} {
		if spans[name] == 0 {
			t.Errorf("resumed job's trace has no %s span; spans by name: %v", name, spans)
		}
	}
}

// TestRecoverResumePointPastSeriesDisk: a crash after the final checkpoint
// but before the terminal record resumes holding every level — the re-run
// evaluates nothing new and still reaches the identical decision.
func TestRecoverResumePointPastSeriesDisk(t *testing.T) {
	dir, jobID, want, wantRes := runUninterrupted(t)
	truncateWAL(t, dir, jobID, len(want.Levels))

	_, _, engine := openPlane(t, dir, service.Options{Workers: 1, SweepWorkers: 1})
	recovered, err := engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || !recovered[0].Resumed {
		t.Fatalf("recovered %+v, want one resumed job", recovered)
	}
	engine.Start()
	st := waitDone(t, engine, jobID)
	if st.State != service.StateDone {
		t.Fatalf("state %s (%s), want done", st.State, st.Error)
	}
	res, err := engine.Result(service.DefaultTenant, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalK != wantRes.OptimalK || math.Float64bits(res.Hmax) != math.Float64bits(wantRes.Hmax) {
		t.Fatalf("fully-checkpointed resume decided k=%d, want %d", res.OptimalK, wantRes.OptimalK)
	}
	if fingerprintHex(t, res.Table) != fingerprintHex(t, wantRes.Table) {
		t.Fatal("fully-checkpointed resume rebuilt a different release table")
	}
}

// TestDiskEvictTablesTTL: the TTL sweep evicts unreferenced expired tables
// from the store and the disk, but spares tables referenced by live jobs.
func TestDiskEvictTablesTTL(t *testing.T) {
	dir := t.TempDir()
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 20})
	if err != nil {
		t.Fatal(err)
	}
	_, store, engine := openPlane(t, dir, service.Options{Workers: 1})
	pInfo, err := store.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	qInfo, err := store.Put(service.DefaultTenant, "Q", sc.Q)
	if err != nil {
		t.Fatal(err)
	}
	// Engine not started: the job pins its table while pending.
	if _, err := engine.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: pInfo.ID, K: 2}); err != nil {
		t.Fatal(err)
	}
	evicted := engine.EvictTables(0)
	if len(evicted) != 1 || evicted[0].ID != qInfo.ID {
		t.Fatalf("evicted %+v, want exactly the unreferenced table %s", evicted, qInfo.ID)
	}
	if _, _, err := store.Get(service.DefaultTenant, qInfo.ID); err == nil {
		t.Fatal("evicted table still served")
	}
	if _, err := os.Stat(filepath.Join(dir, "tables", service.DefaultTenant, qInfo.Hash+".snap")); !os.IsNotExist(err) {
		t.Fatal("evicted table's snapshot file survived")
	}
	if _, _, err := store.Get(service.DefaultTenant, pInfo.ID); err != nil {
		t.Fatalf("referenced table was evicted: %v", err)
	}
}

// TestDiskStoreLockRefusesSecondOpen: a data directory held by a live
// process cannot be opened again — two writers would interleave divergent
// WAL histories.
func TestDiskStoreLockRefusesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := diskstore.Open(dir); err == nil {
		t.Fatal("second Open of a locked data dir succeeded")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, err := diskstore.Open(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	ds2.Close()
}

// TestRecoverKeepsCursorsAcrossSecondRestartDisk: WAL compaction preserves
// terminal jobs' level checkpoints, so an event-stream resume cursor taken
// before the first restart still works after a second one — the client
// gets nothing but the terminal status, never a duplicated replay.
func TestRecoverKeepsCursorsAcrossSecondRestartDisk(t *testing.T) {
	dir, jobID, want, _ := runUninterrupted(t)

	// Restart #1: recover (compacts the WAL), note the last level seq, close.
	ds1, _, engine1 := openPlane(t, dir, service.Options{Workers: 1})
	if _, err := engine1.Recover(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events, err := engine1.Stream(ctx, service.DefaultTenant, jobID)
	if err != nil {
		t.Fatal(err)
	}
	var cursor uint64
	levels1 := 0
	for ev := range events {
		if ev.Type == service.EventLevel {
			levels1++
			if ev.Seq == 0 {
				t.Fatal("restart #1 lost the durable event seqs")
			}
			cursor = ev.Seq
		}
	}
	if levels1 != len(want.Levels) {
		t.Fatalf("restart #1 replayed %d levels, want %d", levels1, len(want.Levels))
	}
	if err := engine1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ds1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart #2: the compacted WAL must still carry the checkpoints, so
	// the pre-crash cursor skips the whole replay.
	_, _, engine2 := openPlane(t, dir, service.Options{Workers: 1})
	if _, err := engine2.Recover(); err != nil {
		t.Fatal(err)
	}
	resumed, err := engine2.StreamAfter(ctx, service.DefaultTenant, jobID, cursor)
	if err != nil {
		t.Fatal(err)
	}
	var got []service.Event
	for ev := range resumed {
		got = append(got, ev)
	}
	if len(got) != 1 || got[0].Type != service.EventStatus {
		t.Fatalf("resume after second restart delivered %d events (%+v), want only the terminal status", len(got), got)
	}
}

// TestRecoverNeverReissuesDeletedJobIDsDisk: the compaction high-water
// marker keeps the job-ID and event-seq counters from regressing when a
// deleted job's records are dropped — across two restarts, a new submission
// must not reuse the deleted job's ID (a stale client polling the old URL
// would silently read an unrelated job).
func TestRecoverNeverReissuesDeletedJobIDsDisk(t *testing.T) {
	dir, jobID, _, _ := runUninterrupted(t)

	// Restart #1: delete the finished job, then shut down cleanly.
	ds1, _, engine1 := openPlane(t, dir, service.Options{Workers: 1})
	if _, err := engine1.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := engine1.Delete(service.DefaultTenant, jobID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := engine1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ds1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart #2: the deleted job's records are compacted away; the marker
	// must still keep its ID retired.
	_, store2, engine2 := openPlane(t, dir, service.Options{Workers: 1})
	if _, err := engine2.Recover(); err != nil {
		t.Fatal(err)
	}
	engine2.Start()
	tables := store2.List(service.DefaultTenant)
	st, err := engine2.Submit(service.DefaultTenant, service.Spec{Type: service.JobAnonymize, Table: tables[0].ID, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == jobID {
		t.Fatalf("restarted engine reissued deleted job ID %s", jobID)
	}
	waitDone(t, engine2, st.ID)
}

// craftWAL opens a fresh plane, stores P and Q, appends the given records
// to the WAL and closes — building an arbitrary crash image for recovery
// tests that cannot be produced deterministically by killing a live run.
func craftWAL(t *testing.T, recs func(p, q string) []service.WALRecord) string {
	t.Helper()
	dir := t.TempDir()
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := service.NewStoreWith(ds)
	pInfo, err := store.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}
	qInfo, err := store.Put(service.DefaultTenant, "Q", sc.Q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs(pInfo.ID, qInfo.ID) {
		rec := recs(pInfo.ID, qInfo.ID)[i]
		if err := ds.AppendWAL(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func levelRecord(seq uint64, k int) service.WALRecord {
	return service.WALRecord{
		Seq: seq, Kind: service.WALLevel, JobID: "job-1",
		Level: &service.LevelSummary{K: k, Before: 1, After: 1, Gain: 0, Utility: 0.5},
	}
}

// TestRecoverHonorsDurableCancelDisk: a WAL holding an accepted cancel but
// no terminal record (the crash beat the worker to it) replays as a
// canceled terminal job with the strict level prefix — never as an
// interrupted job that re-runs the cancelled work.
func TestRecoverHonorsDurableCancelDisk(t *testing.T) {
	created := time.Now().Round(0)
	dir := craftWAL(t, func(p, q string) []service.WALRecord {
		spec := sweepSpec(p, q)
		return []service.WALRecord{
			{Seq: 1, Kind: service.WALJob, JobID: "job-1", JobSeq: 1, Spec: &spec, Created: &created},
			levelRecord(2, 2),
			levelRecord(3, 3),
			{Seq: 4, Kind: service.WALCancel, JobID: "job-1"},
		}
	})
	_, _, engine := openPlane(t, dir, service.Options{Workers: 1})
	recovered, err := engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	engine.Start()
	if len(recovered) != 1 || recovered[0].Resumed {
		t.Fatalf("recovered %+v, want one terminal (non-resumed) job", recovered)
	}
	st := waitDone(t, engine, "job-1")
	if st.State != service.StateCanceled {
		t.Fatalf("state %s, want canceled (durable cancel honored)", st.State)
	}
	if len(st.Levels) != 2 || st.Levels[0].K != 2 || st.Levels[1].K != 3 {
		t.Fatalf("canceled job kept levels %+v, want the checkpointed prefix k=2,3", st.Levels)
	}
	if _, err := engine.Result(service.DefaultTenant, "job-1"); err == nil {
		t.Fatal("canceled job must not yield a result")
	}
}

// levelKs lists a series' ks in order.
func levelKs(levels []service.LevelSummary) []int {
	ks := make([]int, len(levels))
	for i, ls := range levels {
		ks[i] = ls.K
	}
	return ks
}

// feedLevels drains a job's event feed up to its terminal status and returns
// its level events in feed order, failing on any k listed twice.
func feedLevels(t *testing.T, events <-chan service.Event) []service.Event {
	t.Helper()
	var levels []service.Event
	seen := map[int]bool{}
	for ev := range events {
		if ev.Type == service.EventStatus {
			break
		}
		if ev.Type != service.EventLevel {
			continue
		}
		if seen[ev.Level.K] {
			t.Fatalf("event feed lists k=%d twice", ev.Level.K)
		}
		seen[ev.Level.K] = true
		levels = append(levels, ev)
	}
	return levels
}

// resumeMatchesUninterrupted recovers dir's crash image of jobID, whose WAL
// keeps the checkpoints of kept, and holds the resume to the uninterrupted
// run: the recovered status holds the kept levels, the run computes only
// the levels it lacks, its series, candidate flags, decision and release
// match bit for bit, and its event feed lists each k exactly once — live,
// and again after one more restart.
func resumeMatchesUninterrupted(t *testing.T, dir, jobID string, kept []int, opts service.Options, want service.Status, wantRes *service.Result) {
	t.Helper()
	ds, _, engine := openPlane(t, dir, opts)
	recovered, err := engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || !recovered[0].Resumed {
		t.Fatalf("recovered %+v, want one resumed job", recovered)
	}
	if got := levelKs(recovered[0].Status.Levels); !slices.Equal(got, kept) {
		t.Fatalf("resumed job holds levels %v, want the checkpointed %v", got, kept)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	events, err := engine.Stream(ctx, service.DefaultTenant, jobID)
	if err != nil {
		t.Fatal(err)
	}
	engine.Start()
	live := feedLevels(t, events)
	if len(live) != len(want.Levels) {
		t.Fatalf("live feed lists %d levels, want each of the %d once", len(live), len(want.Levels))
	}
	// The feed replays the checkpoints, then publishes the levels computed
	// now. A running calibration on those is taken over every level known
	// at that point, held checkpoints included, in ascending k.
	var known []core.LevelResult
	for i, ev := range live {
		lr := core.LevelResult{K: ev.Level.K, After: ev.Level.After, Utility: ev.Level.Utility}
		known = slices.Insert(known, sort.Search(len(known), func(i int) bool { return known[i].K > lr.K }), lr)
		if i < len(kept) {
			if ev.Level.K != kept[i] {
				t.Fatalf("feed event %d has k=%d, want the checkpointed k=%d replayed first", i, ev.Level.K, kept[i])
			}
			continue
		}
		if ev.Calibration == nil {
			continue
		}
		tp, tu, err := core.CalibrateThresholds(known)
		if err != nil || math.Float64bits(ev.Calibration.Tp) != math.Float64bits(tp) ||
			math.Float64bits(ev.Calibration.Tu) != math.Float64bits(tu) {
			t.Fatalf("k=%d calibration %+v, want CalibrateThresholds over the %d known levels = (%v, %v, %v)",
				ev.Level.K, *ev.Calibration, len(known), tp, tu, err)
		}
	}

	st := waitDone(t, engine, jobID)
	if st.State != service.StateDone {
		t.Fatalf("resumed job state %s (%s), want done", st.State, st.Error)
	}
	if got, wantN := int(st.Summary["levels_evaluated"]), int(want.Summary["levels_evaluated"])-len(kept); got != wantN {
		t.Fatalf("resumed run evaluated %d levels, want %d (uninterrupted %v minus %d checkpointed)",
			got, wantN, want.Summary["levels_evaluated"], len(kept))
	}
	res, err := engine.Result(service.DefaultTenant, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != len(wantRes.Levels) {
		t.Fatalf("resumed series %v, uninterrupted %v", levelKs(res.Levels), levelKs(wantRes.Levels))
	}
	for i := range res.Levels {
		a, b := res.Levels[i], wantRes.Levels[i]
		if a.K != b.K || a.Candidate != b.Candidate ||
			math.Float64bits(a.Before) != math.Float64bits(b.Before) ||
			math.Float64bits(a.After) != math.Float64bits(b.After) ||
			math.Float64bits(a.Gain) != math.Float64bits(b.Gain) ||
			math.Float64bits(a.Utility) != math.Float64bits(b.Utility) {
			t.Fatalf("level %d differs after resume:\n got %+v\nwant %+v", i, a, b)
		}
	}
	if res.OptimalK != wantRes.OptimalK ||
		math.Float64bits(res.Hmax) != math.Float64bits(wantRes.Hmax) ||
		math.Float64bits(res.Tp) != math.Float64bits(wantRes.Tp) ||
		math.Float64bits(res.Tu) != math.Float64bits(wantRes.Tu) {
		t.Fatalf("resumed decision k=%d H=%g tp=%g tu=%g, uninterrupted k=%d H=%g tp=%g tu=%g",
			res.OptimalK, res.Hmax, res.Tp, res.Tu, wantRes.OptimalK, wantRes.Hmax, wantRes.Tp, wantRes.Tu)
	}
	if fingerprintHex(t, res.Table) != fingerprintHex(t, wantRes.Table) {
		t.Fatal("resumed run's release table is not byte-identical to the uninterrupted run's")
	}

	if err := engine.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, engine2 := openPlane(t, dir, opts)
	if _, err := engine2.Recover(); err != nil {
		t.Fatal(err)
	}
	events2, err := engine2.Stream(ctx, service.DefaultTenant, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(feedLevels(t, events2)); n != len(want.Levels) {
		t.Fatalf("feed after another restart lists %d levels, want each of the %d once", n, len(want.Levels))
	}
}

// TestRecoverResumesGappedSeedDisk: a WAL whose level checkpoints have a gap
// (a dropped append: k=3 is missing between k=2 and k=4) resumes holding
// both checkpoints — the sweep computes only the other seven levels and
// finishes exactly as the uninterrupted run did.
func TestRecoverResumesGappedSeedDisk(t *testing.T) {
	dir, jobID, want, wantRes := runUninterrupted(t)
	kept := cutWAL(t, dir, jobID, func(i int) bool { return i == 0 || i == 2 })
	if !slices.Equal(kept, []int{2, 4}) {
		t.Fatalf("crash image keeps checkpoints %v, want k=2 and k=4", kept)
	}
	resumeMatchesUninterrupted(t, dir, jobID, kept, service.Options{Workers: 1}, want, wantRes)
}

// TestRecoverResumesInterruptedAdaptiveSweepDisk: a crash after an adaptive
// sweep's first two checkpoints resumes holding both. One spec scans to
// the Tu crossing and checks the skip (the 400-row cohort, Tu at the k=6
// utility, so the checkpoints are the scan's k=2 and k=3 and the resumed
// scan goes on from k=4), the other is a k_set.
func TestRecoverResumesInterruptedAdaptiveSweepDisk(t *testing.T) {
	t.Run("bisect", func(t *testing.T) {
		sopts := repro.ScenarioOptions{Seed: 42, N: 400, DirectAux: true}
		sc, err := repro.UniversityScenario(sopts)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := core.Sweep(sc.P, microagg.New(), core.AttackConfig{
			Aux: sc.Q, SensitiveRange: fusion.Range{Lo: 40000, Hi: 160000},
		}, 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		// No level index, so no warm start blurs the evaluated counts.
		opts := service.Options{Workers: 1, SweepWorkers: 2, LevelIndexSize: -1}
		dir, jobID, want, wantRes := runSpecUninterrupted(t, sopts, opts, func(p, q string) service.Spec {
			sp := sweepSpec(p, q)
			sp.MaxK, sp.Tu, sp.Adaptive = 16, probe[0].Utility, true
			return sp
		})
		if n := want.Summary["levels_evaluated"]; n >= 15 {
			t.Fatalf("uninterrupted adaptive run evaluated %v of 15 levels; it must skip levels", n)
		}
		resumeMatchesUninterrupted(t, dir, jobID, cutWAL(t, dir, jobID, func(i int) bool { return i < 2 }), opts, want, wantRes)
	})
	t.Run("k_set", func(t *testing.T) {
		opts := service.Options{Workers: 1, SweepWorkers: 2}
		dir, jobID, want, wantRes := runSpecUninterrupted(t, repro.ScenarioOptions{Seed: 42, N: 30}, opts, func(p, q string) service.Spec {
			sp := sweepSpec(p, q)
			sp.KSet = []int{2, 4, 6, 8, 10}
			return sp
		})
		resumeMatchesUninterrupted(t, dir, jobID, cutWAL(t, dir, jobID, func(i int) bool { return i < 2 }), opts, want, wantRes)
	})
}
