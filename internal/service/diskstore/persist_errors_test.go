package diskstore_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/diskstore"
)

var errInjected = errors.New("injected fault")

// faultyStore is a disk store whose PutBlob, AppendWAL or SyncWAL fails
// while its flag is set.
type faultyStore struct {
	*diskstore.Store
	failPutBlob, failAppend, failSync atomic.Bool
}

func (f *faultyStore) PutBlob(hash string, t *dataset.Table) error {
	if f.failPutBlob.Load() {
		return errInjected
	}
	return f.Store.PutBlob(hash, t)
}

func (f *faultyStore) AppendWAL(rec *service.WALRecord) error {
	if f.failAppend.Load() {
		return errInjected
	}
	return f.Store.AppendWAL(rec)
}

func (f *faultyStore) SyncWAL() error {
	if f.failSync.Load() {
		return errInjected
	}
	return f.Store.SyncWAL()
}

// lockedBuffer is a log sink safe for the engine's concurrent writers.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// faultyPlane is a started disk plane over a faultyStore, with tables P
// and Q of the 30-row university cohort uploaded, its metrics and its log.
type faultyPlane struct {
	fs     *faultyStore
	engine *service.Engine
	spec   service.Spec
	reg    *obs.Registry
	log    *lockedBuffer
}

func openFaultyPlane(t *testing.T, dir string) *faultyPlane {
	t.Helper()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	fp := &faultyPlane{fs: &faultyStore{Store: ds}, reg: obs.NewRegistry(), log: &lockedBuffer{}}
	store := service.NewStoreWith(fp.fs)
	if err := store.Open(); err != nil {
		t.Fatal(err)
	}
	fp.engine = service.NewEngine(store, service.Options{
		Workers: 1, SweepWorkers: 1, CacheSize: -1, JobLog: fp.fs,
		Metrics: fp.reg, Logger: slog.New(slog.NewTextHandler(fp.log, nil)),
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		fp.engine.Shutdown(ctx)
	})
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
	if _, err := fp.engine.Recover(); err != nil {
		t.Fatal(err)
	}
	fp.engine.Start()
	fp.spec = sweepSpec(pInfo.ID, qInfo.ID)
	return fp
}

// persistErrors reads persist_errors_total{op} from the plane's metrics.
func (fp *faultyPlane) persistErrors(t *testing.T, op string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fp.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prefix := fmt.Sprintf("persist_errors_total{op=%q} ", op)
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			return v
		}
	}
	return "0"
}

// warned reports whether the plane logged a persistence failure of op for
// job id.
func (fp *faultyPlane) warned(op, id string) bool {
	for _, line := range strings.Split(fp.log.String(), "\n") {
		if strings.Contains(line, "level=WARN") && strings.Contains(line, `msg="persistence failed"`) &&
			strings.Contains(line, "op="+op) && strings.Contains(line, "job="+id) {
			return true
		}
	}
	return false
}

// runJob submits the plane's sweep and waits for it to finish done.
func (fp *faultyPlane) runJob(t *testing.T) service.Status {
	t.Helper()
	st, err := fp.engine.Submit(service.DefaultTenant, fp.spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, fp.engine, st.ID); st.State != service.StateDone {
		t.Fatalf("job %s ended %s (%s), want done", st.ID, st.State, st.Error)
	}
	return st
}

// TestPersistErrorPutBlobCounted: a result blob that cannot be written is
// counted and logged with its job; the job still ends done, and its
// terminal record carries no table hash, so recovery never looks for the
// missing blob.
func TestPersistErrorPutBlobCounted(t *testing.T) {
	dir := t.TempDir()
	fp := openFaultyPlane(t, dir)
	fp.fs.failPutBlob.Store(true)
	st := fp.runJob(t)
	if got := fp.persistErrors(t, "put_blob"); got != "1" {
		t.Fatalf("persist_errors_total{op=put_blob} = %s, want 1", got)
	}
	if !fp.warned("put_blob", st.ID) {
		t.Fatalf("no Warn line for the failed put_blob of job %s:\n%s", st.ID, fp.log.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fp.engine.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := fp.fs.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var terminal *service.WALRecord
	err = ds.ReplayWAL(func(rec service.WALRecord) error {
		if rec.Kind == service.WALStatus && rec.JobID == st.ID {
			terminal = &rec
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if terminal == nil || terminal.Status == nil || terminal.Status.State != service.StateDone {
		t.Fatalf("job %s has no done terminal record: %+v", st.ID, terminal)
	}
	if terminal.Result == nil || terminal.Result.TableHash != "" {
		t.Fatalf("terminal record's result %+v, want one without a table hash", terminal.Result)
	}
}

// TestPersistErrorSyncAndAppendCounted: a failed WAL sync behind a done job
// counts under sync_wal, and a failed delete retraction under append_wal,
// each logged with its job.
func TestPersistErrorSyncAndAppendCounted(t *testing.T) {
	fp := openFaultyPlane(t, t.TempDir())
	fp.fs.failSync.Store(true)
	st := fp.runJob(t)
	if got := fp.persistErrors(t, "sync_wal"); got != "1" {
		t.Fatalf("persist_errors_total{op=sync_wal} = %s, want 1", got)
	}
	if !fp.warned("sync_wal", st.ID) {
		t.Fatalf("no Warn line for the failed sync_wal of job %s:\n%s", st.ID, fp.log.String())
	}
	fp.fs.failSync.Store(false)

	fp.fs.failAppend.Store(true)
	if err := fp.engine.Delete(service.DefaultTenant, st.ID); err != nil {
		t.Fatal(err)
	}
	fp.fs.failAppend.Store(false)
	if got := fp.persistErrors(t, "append_wal"); got != "1" {
		t.Fatalf("persist_errors_total{op=append_wal} = %s, want 1", got)
	}
	if !fp.warned("append_wal", st.ID) {
		t.Fatalf("no Warn line for the failed append_wal of job %s:\n%s", st.ID, fp.log.String())
	}
}
