package diskstore_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
	"repro/internal/service/diskstore"
)

// feedEvent is what a subscriber can tell apart in a job's event feed.
type feedEvent struct {
	Type service.EventType
	Seq  uint64
	K    int
}

// feedFrom drains jobID's event feed from cursor after through its terminal
// status event.
func feedFrom(t *testing.T, e *service.Engine, jobID string, after uint64) []feedEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events, err := e.StreamAfter(ctx, service.DefaultTenant, jobID, after)
	if err != nil {
		t.Fatal(err)
	}
	var feed []feedEvent
	for ev := range events {
		fe := feedEvent{Type: ev.Type, Seq: ev.Seq}
		if ev.Level != nil {
			fe.K = ev.Level.K
		}
		feed = append(feed, fe)
	}
	if len(feed) == 0 || feed[len(feed)-1].Type != service.EventStatus {
		t.Fatalf("feed from cursor %d does not end with the status event: %+v", after, feed)
	}
	return feed
}

// feedsAtEveryCursor returns jobID's feed from each cursor 0, 1, …, up to
// the seq of its terminal status event.
func feedsAtEveryCursor(t *testing.T, e *service.Engine, jobID string) [][]feedEvent {
	t.Helper()
	first := feedFrom(t, e, jobID, 0)
	statusSeq := first[len(first)-1].Seq
	if statusSeq == 0 {
		t.Fatal("terminal status event carries no durable seq")
	}
	feeds := [][]feedEvent{first}
	for c := uint64(1); c <= statusSeq; c++ {
		feeds = append(feeds, feedFrom(t, e, jobID, c))
	}
	return feeds
}

// walLevelSeqs lists the seqs of jobID's level records in dir's WAL, in
// replay order.
func walLevelSeqs(t *testing.T, dir, jobID string) []uint64 {
	t.Helper()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var seqs []uint64
	err = ds.ReplayWAL(func(rec service.WALRecord) error {
		if rec.Kind == service.WALLevel && rec.JobID == jobID {
			seqs = append(seqs, rec.Seq)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

// closePlane shuts the engine down and closes the store, releasing dir for
// the next plane.
func closePlane(t *testing.T, ds *diskstore.Store, e *service.Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverServesSameTruncatedFeedDisk: a done sweep whose feed the engine
// truncated to its last 3 events (MaxJobEvents) serves the same events —
// type, seq and k — from every cursor up to its status seq, before and
// after each of two restarts under the same bound.
func TestRecoverServesSameTruncatedFeedDisk(t *testing.T) {
	opts := service.Options{Workers: 1, SweepWorkers: 2, MaxJobEvents: 3}
	dir := t.TempDir()
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 30})
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
	st, err := engine.Submit(service.DefaultTenant, sweepSpec(pInfo.ID, qInfo.ID))
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, engine, st.ID); st.State != service.StateDone {
		t.Fatalf("state %s (%s), want done", st.State, st.Error)
	}
	want := feedsAtEveryCursor(t, engine, st.ID)
	closePlane(t, ds, engine)
	if n := len(walLevelSeqs(t, dir, st.ID)); n != 9 {
		t.Fatalf("WAL holds %d checkpoints, want the 9 of k=2..10", n)
	}

	for restart := 1; restart <= 2; restart++ {
		ds, _, engine := openPlane(t, dir, opts)
		if _, err := engine.Recover(); err != nil {
			t.Fatal(err)
		}
		got := feedsAtEveryCursor(t, engine, st.ID)
		if len(got) != len(want) {
			t.Fatalf("restart %d: status seq moved: %d cursors, want %d", restart, len(got), len(want))
		}
		for c := range want {
			if !slices.Equal(got[c], want[c]) {
				t.Fatalf("restart %d, cursor %d: feed\n got %+v\nwant %+v", restart, c, got[c], want[c])
			}
		}
		closePlane(t, ds, engine)
	}
}

// TestRecoverCompactsBeforeTrimmingDisk: boot compaction keeps every
// checkpoint of a terminal job, however few events the engine retains in
// memory: after a restart under MaxJobEvents 3 the log still holds all 9
// level records, and a further restart under MaxJobEvents 16 streams the 9
// original events, with their original seqs, from cursor 0.
func TestRecoverCompactsBeforeTrimmingDisk(t *testing.T) {
	dir, jobID, _, _ := runUninterrupted(t)
	wantSeqs := walLevelSeqs(t, dir, jobID)
	if len(wantSeqs) != 9 {
		t.Fatalf("WAL holds %d checkpoints, want the 9 of k=2..10", len(wantSeqs))
	}

	ds, _, engine := openPlane(t, dir, service.Options{Workers: 1, MaxJobEvents: 3})
	if _, err := engine.Recover(); err != nil {
		t.Fatal(err)
	}
	closePlane(t, ds, engine)
	if got := walLevelSeqs(t, dir, jobID); !slices.Equal(got, wantSeqs) {
		t.Fatalf("compacted log holds checkpoints %v, want all of %v", got, wantSeqs)
	}

	_, _, engine = openPlane(t, dir, service.Options{Workers: 1, MaxJobEvents: 16})
	if _, err := engine.Recover(); err != nil {
		t.Fatal(err)
	}
	var gotSeqs []uint64
	for _, ev := range feedFrom(t, engine, jobID, 0) {
		if ev.Type == service.EventLevel {
			gotSeqs = append(gotSeqs, ev.Seq)
		}
	}
	if !slices.Equal(gotSeqs, wantSeqs) {
		t.Fatalf("feed from cursor 0 lists level seqs %v, want the original %v", gotSeqs, wantSeqs)
	}
}
