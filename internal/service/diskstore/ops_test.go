package diskstore_test

// Ops-plane tests for the storage layer: WAL segment rotation, online
// compaction, crash images taken mid-compaction, and result-blob garbage
// collection. The headline test is the kill -9 acceptance: a plane that
// rotated several times and compacted once must replay byte-identically
// from a disk image copied while the store was still live.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
	"repro/internal/service/diskstore"
)

// openPlaneRot is openPlane with diskstore options (rotation) threaded
// through.
func openPlaneRot(t *testing.T, dir string, opts service.Options, dsOpts ...diskstore.Option) (*diskstore.Store, *service.Store, *service.Engine) {
	t.Helper()
	ds, err := diskstore.Open(dir, dsOpts...)
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

// replayImage opens dir as a fresh store, replays the whole WAL and returns
// each record's canonical JSON, in replay order. Byte-level comparison of
// two images is exactly the acceptance contract: not "equivalent" state,
// the same records.
func replayImage(t *testing.T, dir string) []string {
	t.Helper()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var lines []string
	err = ds.ReplayWAL(func(rec service.WALRecord) error {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		lines = append(lines, string(b))
		return nil
	})
	if err != nil {
		t.Fatalf("replay %s: %v", dir, err)
	}
	return lines
}

func sameImage(t *testing.T, got, want []string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: replayed %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d differs\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

// copyDir snapshots a live data directory file-by-file — the moral
// equivalent of the disk image a kill -9 leaves behind. It must be taken
// while the source store is still open (the flock is advisory and
// per-process state, so the copy opens cleanly).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "image")
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestWALRotationBySize: with a tiny byte threshold, appends roll the log
// across many segments, and replay stitches them back in order — across a
// close/reopen too.
func TestWALRotationBySize(t *testing.T) {
	dir := t.TempDir()
	ds, err := diskstore.Open(dir, diskstore.WithWALRotation(256, 0))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 1; i <= n; i++ {
		rec := &service.WALRecord{Seq: uint64(i), Kind: service.WALDelete, JobID: "job-rotate"}
		if err := ds.AppendWAL(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(walSegments(t, dir)); got < 3 {
		t.Fatalf("after %d appends at 256-byte rotation: %d segments, want >= 3", n, got)
	}
	var seqs []uint64
	if err := ds.ReplayWAL(func(rec service.WALRecord) error {
		seqs = append(seqs, rec.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != n {
		t.Fatalf("replayed %d records, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("record %d has seq %d — multi-segment replay out of order", i, s)
		}
	}
	// Reopen without the rotation option: segment layout is data, not config.
	img := replayImage(t, dir)
	if len(img) != n {
		t.Fatalf("reopened replay saw %d records, want %d", len(img), n)
	}
}

// TestWALRotationByAge: the age trigger alone must also roll the segment.
func TestWALRotationByAge(t *testing.T) {
	dir := t.TempDir()
	ds, err := diskstore.Open(dir, diskstore.WithWALRotation(0, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for i := 1; i <= 3; i++ {
		time.Sleep(5 * time.Millisecond)
		rec := &service.WALRecord{Seq: uint64(i), Kind: service.WALDelete, JobID: "job-age"}
		if err := ds.AppendWAL(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(walSegments(t, dir)); got < 2 {
		t.Fatalf("age-based rotation never fired: %d segments", got)
	}
}

// TestCompactionSupersedesSegments: CompactWAL collapses a many-segment
// history into one marker-led segment; replay serves exactly the live image.
func TestCompactionSupersedesSegments(t *testing.T) {
	dir := t.TempDir()
	ds, err := diskstore.Open(dir, diskstore.WithWALRotation(200, 0))
	if err != nil {
		t.Fatal(err)
	}
	live := make([]*service.WALRecord, 0, 10)
	for i := 1; i <= 30; i++ {
		rec := &service.WALRecord{Seq: uint64(i), Kind: service.WALDelete, JobID: "job-compact"}
		if err := ds.AppendWAL(rec); err != nil {
			t.Fatal(err)
		}
		// Every third record survives compaction, standing in for the live
		// subset the engine computes.
		if i%3 == 0 {
			live = append(live, rec)
		}
	}
	before := walSegments(t, dir)
	if len(before) < 3 {
		t.Fatalf("history too small to prove anything: %d segments", len(before))
	}
	if err := ds.CompactWAL(live); err != nil {
		t.Fatal(err)
	}
	after := walSegments(t, dir)
	if len(after) != 1 {
		t.Fatalf("compaction left %d segments %v, want exactly 1", len(after), after)
	}
	raw, err := os.ReadFile(after[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), `{"wal_compact_base":true}`) {
		t.Fatalf("compacted segment does not open with the base marker: %q", raw[:min(len(raw), 60)])
	}
	// Appends continue into the compacted generation.
	if err := ds.AppendWAL(&service.WALRecord{Seq: 31, Kind: service.WALDelete, JobID: "job-compact"}); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if err := ds.ReplayWAL(func(rec service.WALRecord) error {
		seqs = append(seqs, rec.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 0, len(live)+1)
	for _, rec := range live {
		want = append(want, rec.Seq)
	}
	want = append(want, 31)
	if len(seqs) != len(want) {
		t.Fatalf("replay saw %d records %v, want %v", len(seqs), seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("replay %v, want %v", seqs, want)
		}
	}
}

// TestCrashMidCompactionImages constructs the two disk states a kill can
// leave inside CompactWAL and proves Open repairs both without changing
// what replays:
//
//   - killed before the rename: a .meta-* temp file holding the half-written
//     compacted segment sits in the directory root; it is swept, the old
//     segments still replay.
//   - killed between the rename and the unlinks: the marker-led segment
//     coexists with the stale history it superseded; Open drops the stale
//     segments and replays only the compacted image.
func TestCrashMidCompactionImages(t *testing.T) {
	dir := t.TempDir()
	ds, err := diskstore.Open(dir, diskstore.WithWALRotation(200, 0))
	if err != nil {
		t.Fatal(err)
	}
	live := make([]*service.WALRecord, 0, 10)
	for i := 1; i <= 30; i++ {
		rec := &service.WALRecord{Seq: uint64(i), Kind: service.WALDelete, JobID: "job-crash"}
		if err := ds.AppendWAL(rec); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			live = append(live, rec)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	baseline := replayImage(t, dir)

	// State 1: crash before the rename. The atomic write machinery stages
	// under .meta-*; forge one holding a plausible half-compaction.
	debris := filepath.Join(dir, ".meta-1234567")
	if err := os.WriteFile(debris, []byte("{\"wal_compact_base\":true}\n{\"seq\":3,"), 0o644); err != nil {
		t.Fatal(err)
	}
	sameImage(t, replayImage(t, dir), baseline, "crash before rename")
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("compaction temp debris survived Open")
	}

	// State 2: crash between rename and unlink. Run a real compaction, then
	// resurrect a stale pre-compaction segment next to the marker segment.
	ds, err = diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.CompactWAL(live); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	compacted := replayImage(t, dir)
	if len(compacted) != len(live) {
		t.Fatalf("compacted image has %d records, want %d", len(compacted), len(live))
	}
	stale := filepath.Join(dir, "jobs-00000001.wal")
	staleBody := "{\"seq\":1,\"kind\":\"delete\",\"job_id\":\"job-crash\"}\n"
	if err := os.WriteFile(stale, []byte(staleBody), 0o644); err != nil {
		t.Fatal(err)
	}
	sameImage(t, replayImage(t, dir), compacted, "crash between rename and unlink")
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("superseded segment survived Open after a simulated mid-compaction crash")
	}
}

// TestKillDuringRotatedCompactedRunByteIdentical is the PR's acceptance
// test: a serving plane that rotated its WAL at least three times and
// compacted once online, imaged as a kill -9 would leave it (copied while
// the store is live, nothing closed), recovers every job byte-identically.
func TestKillDuringRotatedCompactedRunByteIdentical(t *testing.T) {
	dir := t.TempDir()
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	_, store, engine := openPlaneRot(t, dir, service.Options{Workers: 2, SweepWorkers: 2},
		diskstore.WithWALRotation(300, 0))
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

	st1, err := engine.Submit(service.DefaultTenant, sweepSpec(pInfo.ID, qInfo.ID))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, engine, st1.ID)
	if got := len(walSegments(t, dir)); got < 3 {
		t.Fatalf("one sweep at 300-byte rotation produced %d segments, want >= 3 rotations", got)
	}
	if err := engine.CompactLog(); err != nil {
		t.Fatal(err)
	}

	// Second job lands in post-compaction segments: the image mixes a
	// marker-led base segment with fresh rotated history.
	spec2 := sweepSpec(pInfo.ID, qInfo.ID)
	spec2.MaxK = 6
	st2, err := engine.Submit(service.DefaultTenant, spec2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, engine, st2.ID)
	res1, err := engine.Result(service.DefaultTenant, st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := engine.Result(service.DefaultTenant, st2.ID)
	if err != nil {
		t.Fatal(err)
	}

	// kill -9: image the directory while everything is still open.
	image := copyDir(t, dir)

	_, _, engine2 := openPlane(t, image, service.Options{Workers: 2, SweepWorkers: 2})
	if _, err := engine2.Recover(); err != nil {
		t.Fatal(err)
	}
	engine2.Start()
	for _, job := range []struct {
		id   string
		want *service.Result
	}{{st1.ID, res1}, {st2.ID, res2}} {
		st, err := engine2.Job(service.DefaultTenant, job.id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.StateDone {
			t.Fatalf("job %s recovered as %s, want done", job.id, st.State)
		}
		got, err := engine2.Result(service.DefaultTenant, job.id)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprintHex(t, got.Table) != fingerprintHex(t, job.want.Table) {
			t.Fatalf("job %s result diverged after kill -9 recovery", job.id)
		}
		if len(got.Levels) != len(job.want.Levels) {
			t.Fatalf("job %s recovered %d levels, want %d", job.id, len(got.Levels), len(job.want.Levels))
		}
	}
}

// TestBlobGCReclaimsUnreferenced: a done job roots its result blob; deleting
// the job orphans it; a dry run names it without touching the file; a real
// run reclaims it — and the plane keeps serving afterwards.
func TestBlobGCReclaimsUnreferenced(t *testing.T) {
	dir := t.TempDir()
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	// CacheSize -1: the result cache must not keep the blob reachable after
	// the job is deleted, or the test would prove nothing.
	_, store, engine := openPlane(t, dir, service.Options{Workers: 2, SweepWorkers: 2, CacheSize: -1})
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
	st, err := engine.Submit(service.DefaultTenant, sweepSpec(pInfo.ID, qInfo.ID))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, engine, st.ID)

	blobGlob := filepath.Join(dir, "results", "*.snap")
	blobs, err := filepath.Glob(blobGlob)
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no result blobs on disk (%v)", err)
	}

	rep, err := engine.GCBlobs(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reclaimed != 0 || rep.Live == 0 {
		t.Fatalf("GC with a live job reclaimed %d (live %d), want 0 reclaimed", rep.Reclaimed, rep.Live)
	}

	if err := engine.Delete(service.DefaultTenant, st.ID); err != nil {
		t.Fatal(err)
	}
	dry, err := engine.GCBlobs(true)
	if err != nil {
		t.Fatal(err)
	}
	if !dry.DryRun || dry.Reclaimed != 1 || len(dry.Unreferenced) != 1 || dry.BytesReclaimed <= 0 {
		t.Fatalf("dry run %+v, want exactly one reclaimable blob with bytes", dry)
	}
	if left, _ := filepath.Glob(blobGlob); len(left) != len(blobs) {
		t.Fatal("dry run deleted blobs")
	}

	real, err := engine.GCBlobs(false)
	if err != nil {
		t.Fatal(err)
	}
	if real.Reclaimed != 1 || real.BytesReclaimed != dry.BytesReclaimed {
		t.Fatalf("real run %+v, want the dry run's one blob and byte count", real)
	}
	if left, _ := filepath.Glob(blobGlob); len(left) != 0 {
		t.Fatalf("unreferenced blobs survived GC: %v", left)
	}

	// Tables were never GC roots at risk: the plane still serves, and a
	// re-run of the same spec rewrites the blob.
	st2, err := engine.Submit(service.DefaultTenant, sweepSpec(pInfo.ID, qInfo.ID))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, engine, st2.ID)
	if left, _ := filepath.Glob(blobGlob); len(left) == 0 {
		t.Fatal("re-run did not rewrite the result blob")
	}
}

// TestDoneJobsKeepBlobsUnderGCAndCompaction races blob GC and online log
// compaction against finishing jobs. A job is published done only after its
// blob is written and rooted, so every job observed done has its result
// blob on disk; half the jobs are deleted as they finish, so later jobs
// with the same result re-root blobs the GC loop is reclaiming. After the
// loops stop, a restart recovers every kept job done with its result.
func TestDoneJobsKeepBlobsUnderGCAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// CacheSize -1: no result-cache root, so each blob is rooted by its
	// jobs alone. Nothing is held: the gated store is a plain disk store.
	opts := service.Options{Workers: 2, SweepWorkers: 1, CacheSize: -1}
	ds, engine, spec := openGatedPlane(t, dir, opts)

	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, pass := range []func() error{
		func() error { _, err := engine.GCBlobs(false); return err },
		engine.CompactLog,
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := pass(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	halt := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	t.Cleanup(halt)

	kept := make(map[string]string) // job ID → result hash
	for i := 0; i < 16; i++ {
		spec.MaxK = 4 + i%4
		st, err := engine.Submit(service.DefaultTenant, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st = waitDone(t, engine, st.ID); st.State != service.StateDone {
			t.Fatalf("job %s state %s (%s), want done", st.ID, st.State, st.Error)
		}
		res, err := engine.Result(service.DefaultTenant, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		h := fingerprintHex(t, res.Table)
		if _, err := os.Stat(filepath.Join(dir, "results", h+".snap")); err != nil {
			t.Fatalf("job %s observed done without its result blob: %v", st.ID, err)
		}
		if i%2 == 1 {
			if err := engine.Delete(service.DefaultTenant, st.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		kept[st.ID] = h
	}
	halt()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
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
	for id, h := range kept {
		st, err := engine2.Job(service.DefaultTenant, id)
		if err != nil || st.State != service.StateDone {
			t.Fatalf("job %s recovered as %s (%v), want done", id, st.State, err)
		}
		res, err := engine2.Result(service.DefaultTenant, id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table == nil || fingerprintHex(t, res.Table) != h {
			t.Fatalf("job %s recovered without its result table", id)
		}
	}
}

// gatedStore is a disk store whose next ListBlobs or SyncWAL call can be
// held: the held call signals entered and waits until open is called.
// Holding ListBlobs freezes a blob-GC pass between its root scan and its
// deletes; holding SyncWAL freezes a finishing job between its terminal
// append and its publish.
type gatedStore struct {
	*diskstore.Store
	holdList, holdSync atomic.Bool
	entered            chan struct{}
	gate               chan struct{}
	opened             sync.Once
}

func (g *gatedStore) open() { g.opened.Do(func() { close(g.gate) }) }

func (g *gatedStore) hold(h *atomic.Bool) {
	if h.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.gate
	}
}

func (g *gatedStore) ListBlobs() ([]service.BlobInfo, error) {
	g.hold(&g.holdList)
	return g.Store.ListBlobs()
}

func (g *gatedStore) SyncWAL() error {
	g.hold(&g.holdSync)
	return g.Store.SyncWAL()
}

// openGatedPlane is openPlane over a gatedStore, with tables P and Q of the
// 30-row university cohort uploaded and the engine recovered and started.
func openGatedPlane(t *testing.T, dir string, opts service.Options) (*gatedStore, *service.Engine, service.Spec) {
	t.Helper()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedStore{Store: ds, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	t.Cleanup(func() { ds.Close() })
	store := service.NewStoreWith(g)
	if err := store.Open(); err != nil {
		t.Fatal(err)
	}
	opts.JobLog = g
	engine := service.NewEngine(store, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		engine.Shutdown(ctx)
	})
	t.Cleanup(g.open) // runs first: a failed test must not leave a call held
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 30})
	if err != nil {
		t.Fatal(err)
	}
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
	return g, engine, sweepSpec(pInfo.ID, qInfo.ID)
}

// TestBlobGCSparesBlobRootedMidPass freezes a GC pass after its root scan,
// with an unreferenced blob on disk, and lets a job with the same result
// finish meanwhile. The job must not be published done while its blob can
// still be reclaimed: when the pass ends, the job is done and its blob is
// on disk.
func TestBlobGCSparesBlobRootedMidPass(t *testing.T) {
	dir := t.TempDir()
	g, engine, spec := openGatedPlane(t, dir, service.Options{Workers: 1, SweepWorkers: 1, CacheSize: -1})
	first, err := engine.Submit(service.DefaultTenant, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, engine, first.ID)
	res, err := engine.Result(service.DefaultTenant, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(dir, "results", fingerprintHex(t, res.Table)+".snap")
	if err := engine.Delete(service.DefaultTenant, first.ID); err != nil {
		t.Fatal(err)
	}

	g.holdList.Store(true)
	gcErr := make(chan error, 1)
	go func() {
		_, err := engine.GCBlobs(false)
		gcErr <- err
	}()
	<-g.entered
	second, err := engine.Submit(service.DefaultTenant, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Give the job time to finish if nothing holds it behind the pass.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	engine.Wait(ctx, service.DefaultTenant, second.ID) //nolint:errcheck // a timeout is the expected outcome
	cancel()
	g.open()
	if err := <-gcErr; err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, engine, second.ID); st.State != service.StateDone {
		t.Fatalf("job %s state %s (%s), want done", st.ID, st.State, st.Error)
	}
	if _, err := os.Stat(blob); err != nil {
		t.Fatalf("job %s is done but the GC pass reclaimed its blob: %v", second.ID, err)
	}
}

// TestCompactionKeepsUnpublishedTerminalRecord freezes a finishing job
// between its terminal append and its publish, compacts the log there, and
// restarts. The job is not done before its terminal record is synced, and
// the compacted log still holds that record, so the job recovers done with
// its result.
func TestCompactionKeepsUnpublishedTerminalRecord(t *testing.T) {
	dir := t.TempDir()
	opts := service.Options{Workers: 1, SweepWorkers: 1}
	g, engine, spec := openGatedPlane(t, dir, opts)
	g.holdSync.Store(true)
	st, err := engine.Submit(service.DefaultTenant, spec)
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered
	if got, err := engine.Job(service.DefaultTenant, st.ID); err != nil || got.State.Terminal() {
		t.Fatalf("job %s is %s (%v) before its terminal record is synced", st.ID, got.State, err)
	}
	if err := engine.CompactLog(); err != nil {
		t.Fatal(err)
	}
	g.open()
	waitDone(t, engine, st.ID)
	res, err := engine.Result(service.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintHex(t, res.Table)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := engine.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, engine2 := openPlane(t, dir, opts)
	if _, err := engine2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got, err := engine2.Job(service.DefaultTenant, st.ID); err != nil || got.State != service.StateDone {
		t.Fatalf("job %s recovered as %s (%v), want done", st.ID, got.State, err)
	}
	got, err := engine2.Result(service.DefaultTenant, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table == nil || fingerprintHex(t, got.Table) != want {
		t.Fatalf("job %s recovered without its result table", st.ID)
	}
}
