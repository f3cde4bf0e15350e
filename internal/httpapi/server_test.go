package httpapi_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/service"
)

// newTestServer spins up the full stack — store, engine, REST layer — on an
// httptest server. When start is false the engine's workers stay parked, so
// submitted jobs remain pending (for testing the not-finished paths).
func newTestServer(t *testing.T, start bool) (*httptest.Server, *service.Store) {
	ts, store, _ := newTestServerEngine(t, start, service.Options{Workers: 2, SweepWorkers: 4})
	return ts, store
}

// checkGoroutineLeaks registers a cleanup — first, so it runs after the
// server and engine cleanups — that fails the test when the goroutine count
// does not return to its pre-test baseline. This is what catches a leaked
// SSE response body: an unclosed stream pins the server's event-stream
// handler, the engine's subscription goroutine and the client connection
// forever, and the count never converges.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(10 * time.Second)
		var n int
		for {
			if n = runtime.NumGoroutine(); n <= base+3 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutine leak: %d at test start, still %d after shutdown\n%s", base, n, buf)
	})
}

// newTestServerEngine additionally hands back the engine, for tests that
// need to start the workers only after setting up observers (event-stream
// tests subscribe first so streaming is observed deterministically) or to
// tune the worker counts.
func newTestServerEngine(t *testing.T, start bool, opts service.Options) (*httptest.Server, *service.Store, *service.Engine) {
	t.Helper()
	checkGoroutineLeaks(t)
	store := service.NewStore()
	engine := service.NewEngine(store, opts)
	if start {
		engine.Start()
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		engine.Shutdown(ctx)
	})
	ts := httptest.NewServer(httpapi.New(store, engine, nil))
	t.Cleanup(ts.Close)
	return ts, store, engine
}

func decodeJSON(t *testing.T, r io.Reader, v any) {
	t.Helper()
	if err := json.NewDecoder(r).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// errorBody asserts the standard JSON error envelope and returns the message.
func errorBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	decodeJSON(t, resp.Body, &e)
	if e.Error == "" {
		t.Fatal("error response without an error field")
	}
	return e.Error
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, true)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]any
	decodeJSON(t, resp.Body, &body)
	if body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}
	for _, field := range []string{"uptime_seconds", "durable", "wal_seq", "jobs_finished", "jobs_live", "tenants"} {
		if _, ok := body[field]; !ok {
			t.Errorf("healthz body missing %q: %v", field, body)
		}
	}
	if body["durable"] != false {
		t.Errorf("in-memory server reports durable=%v", body["durable"])
	}
}

func TestUploadRejectsMalformedCSV(t *testing.T) {
	ts, _ := newTestServer(t, true)
	resp, err := http.Post(ts.URL+"/v1/tables", "text/csv",
		strings.NewReader("Name,Age\nnot-a-meta-header\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if msg := errorBody(t, resp); !strings.Contains(msg, "csv") {
		t.Fatalf("unhelpful error: %q", msg)
	}
}

func TestTableLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, true)
	csv := "Name,Score,Salary\nid:text,qi:number,s:number\nAlice,5,90000\nBob,7,110000\n"

	resp, err := http.Post(ts.URL+"/v1/tables?name=demo", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	var info service.TableInfo
	decodeJSON(t, resp.Body, &info)
	if info.Name != "demo" || info.Rows != 2 || info.Cols != 3 {
		t.Fatalf("bad info: %+v", info)
	}

	// Metadata endpoint.
	resp2, err := http.Get(ts.URL + "/v1/tables/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var info2 service.TableInfo
	decodeJSON(t, resp2.Body, &info2)
	if info2.Hash != info.Hash {
		t.Fatalf("metadata mismatch: %+v vs %+v", info2, info)
	}

	// CSV download round-trips.
	resp3, err := http.Get(ts.URL + "/v1/tables/" + info.ID + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("content type %q", ct)
	}
	tab, err := dataset.ReadCSV(resp3.Body)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("downloaded %d rows", tab.NumRows())
	}

	// List contains it; delete removes it.
	resp4, err := http.Get(ts.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var list struct {
		Tables []service.TableInfo `json:"tables"`
	}
	decodeJSON(t, resp4.Body, &list)
	if len(list.Tables) != 1 {
		t.Fatalf("list has %d tables", len(list.Tables))
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tables/"+info.ID, nil)
	resp5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp5.StatusCode)
	}
	resp6, err := http.Get(ts.URL + "/v1/tables/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp6.Body.Close()
	if resp6.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d after delete, want 404", resp6.StatusCode)
	}
	errorBody(t, resp6)
}

func TestJobSubmissionErrors(t *testing.T) {
	ts, _ := newTestServer(t, true)

	// Unknown table → 404.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"type":"anonymize","table":"tbl-404","k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	errorBody(t, resp)

	// Unknown spec field → 400 (DisallowUnknownFields guards typos).
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"type":"anonymize","table":"tbl-1","kay":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp2.StatusCode)
	}

	// Invalid spec (k too small) → 400.
	resp3, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"type":"anonymize","table":"tbl-1","k":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest && resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 4xx", resp3.StatusCode)
	}
}

func TestJobResultBeforeCompletion(t *testing.T) {
	// Engine not started: the job stays pending forever.
	ts, store := newTestServer(t, false)
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 7, N: 20})
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.Put(service.DefaultTenant, "P", sc.P)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"type":"anonymize","table":%q,"k":2}`, info.ID)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var st service.Status
	decodeJSON(t, resp.Body, &st)
	if st.State != service.StatePending {
		t.Fatalf("state %s, want pending", st.State)
	}

	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("result status %d, want 409", resp2.StatusCode)
	}
	errorBody(t, resp2)

	// Deleting a non-terminal job is a conflict; the job keeps running.
	reqDel, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	respDel, err := http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatal(err)
	}
	respDel.Body.Close()
	if respDel.StatusCode != http.StatusConflict {
		t.Fatalf("delete-while-pending status %d, want 409", respDel.StatusCode)
	}

	// Cancel over HTTP, then the job is terminal.
	resp3, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp3.StatusCode)
	}
	resp4, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var st2 service.Status
	decodeJSON(t, resp4.Body, &st2)
	if st2.State != service.StateCanceled {
		t.Fatalf("state %s, want canceled", st2.State)
	}

	// A terminal job can be purged, after which it is unknown.
	reqDel2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	respDel2, err := http.DefaultClient.Do(reqDel2)
	if err != nil {
		t.Fatal(err)
	}
	respDel2.Body.Close()
	if respDel2.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", respDel2.StatusCode)
	}
	resp5, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp5.Body.Close()
	if resp5.StatusCode != http.StatusNotFound {
		t.Fatalf("status after purge %d, want 404", resp5.StatusCode)
	}
}

func TestUnknownJobRoutes(t *testing.T) {
	ts, _ := newTestServer(t, true)
	for _, path := range []string{"/v1/jobs/job-404", "/v1/jobs/job-404/result"} {
		// The deferred close runs even when an assertion below fails the
		// test — a bare Close after the assertions would leak the body (and
		// its connection) on that early exit.
		func() {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
			}
			errorBody(t, resp)
		}()
	}
}

// uploadTable pushes a dataset.Table through the upload endpoint.
func uploadTable(t *testing.T, baseURL, name string, tab *dataset.Table) service.TableInfo {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/tables?name="+name, "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s: status %d", name, resp.StatusCode)
	}
	var info service.TableInfo
	decodeJSON(t, resp.Body, &info)
	return info
}

// submitJob posts a job spec and returns the accepted status.
func submitJob(t *testing.T, baseURL string, spec service.Spec) service.Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, errorBody(t, resp))
	}
	var st service.Status
	decodeJSON(t, resp.Body, &st)
	return st
}

// pollJob polls the status endpoint until the job is terminal.
func pollJob(t *testing.T, baseURL, id string) service.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st service.Status
		func() {
			// Deferred so a decode failure's t.Fatal cannot leak the body.
			defer resp.Body.Close()
			decodeJSON(t, resp.Body, &st)
		}()
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s at deadline", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sseData extracts the data payloads from a Server-Sent Events stream body.
func sseData(t *testing.T, r io.Reader) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			out = append(out, strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read event stream: %v", err)
	}
	return out
}

// TestEndToEndJobEventStream is the streaming e2e: submit a fred-sweep and
// read GET /v1/jobs/{id}/events to completion. The stream must deliver at
// least two per-level events — in k order, with running calibration and
// advancing progress — before the terminal status event, then close. The
// subscription is opened while the job is still pending (the engine starts
// after the stream is connected), so every level event is observed live,
// ahead of the terminal state, not replayed after the fact.
func TestEndToEndJobEventStream(t *testing.T) {
	ts, _, engine := newTestServerEngine(t, false, service.Options{Workers: 2, SweepWorkers: 4})
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 40})
	if err != nil {
		t.Fatal(err)
	}
	pInfo := uploadTable(t, ts.URL, "P", sc.P)
	qInfo := uploadTable(t, ts.URL, "Q", sc.Q)
	st := submitJob(t, ts.URL, service.Spec{
		Type: service.JobFREDSweep, Table: pInfo.ID, Aux: qInfo.ID,
		MinK: 2, MaxK: 16,
		SensitiveLo: 40000, SensitiveHi: 160000,
	})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	// Connected and subscribed to a still-pending job; now let it run.
	engine.Start()

	var events []service.Event
	for _, data := range sseData(t, resp.Body) {
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", data, err)
		}
		events = append(events, ev)
	}
	if len(events) < 3 {
		t.Fatalf("stream delivered %d events, want ≥ 2 levels + terminal", len(events))
	}
	levels, terminal := events[:len(events)-1], events[len(events)-1]
	if len(levels) < 2 {
		t.Fatalf("saw %d level events before the terminal status, want ≥ 2", len(levels))
	}
	lastProgress := 0.0
	for i, ev := range levels {
		if ev.Type != service.EventLevel || ev.Level == nil {
			t.Fatalf("event %d is %q, want an in-stream level event", i, ev.Type)
		}
		if ev.Level.K != i+2 {
			t.Errorf("level event %d has k=%d, want %d", i, ev.Level.K, i+2)
		}
		if ev.Progress <= lastProgress {
			t.Errorf("k=%d: progress %g did not advance past %g", ev.Level.K, ev.Progress, lastProgress)
		}
		lastProgress = ev.Progress
		if i >= 2 && ev.Calibration == nil {
			t.Errorf("k=%d: missing running calibration", ev.Level.K)
		}
	}
	if terminal.Type != service.EventStatus || terminal.Status == nil {
		t.Fatalf("last event is %q, want the terminal status", terminal.Type)
	}
	if terminal.Status.State != service.StateDone {
		t.Fatalf("job ended %s: %s", terminal.Status.State, terminal.Status.Error)
	}
	if optK := int(terminal.Status.Summary["optimal_k"]); optK < 2 || optK > 16 {
		t.Fatalf("optimal k %d outside the sweep range", optK)
	}
	// The status endpoint agrees and carries the final per-level series.
	final := pollJob(t, ts.URL, st.ID)
	if len(final.Levels) != len(levels) {
		t.Fatalf("status has %d levels, stream delivered %d", len(final.Levels), len(levels))
	}
}

// TestJobEventStreamCancelMidSweep cancels a long sweep after its first
// level event and requires the NDJSON event stream to end promptly with a
// canceled terminal status. The stream is connected before the engine
// starts, so the cancel provably lands with ~98 of 99 levels still unswept.
func TestJobEventStreamCancelMidSweep(t *testing.T) {
	// One worker and one sweep worker: the sweep runs serially (slow, on a
	// big cohort) and leaves the scheduler room for the stream reads and the
	// cancel round-trip even on a single-CPU machine. The cohort must be big
	// enough that 99 MDAV levels take whole seconds — the batch attack plane
	// made small-cohort levels so cheap that a 400-row sweep could finish
	// before an immediate cancel landed.
	ts, _, engine := newTestServerEngine(t, false, service.Options{Workers: 1, SweepWorkers: 1})
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 2000, DirectAux: true})
	if err != nil {
		t.Fatal(err)
	}
	pInfo := uploadTable(t, ts.URL, "P", sc.P)
	qInfo := uploadTable(t, ts.URL, "Q", sc.Q)
	st := submitJob(t, ts.URL, service.Spec{
		Type: service.JobFREDSweep, Table: pInfo.ID, Aux: qInfo.ID,
		MinK: 2, MaxK: 100,
		SensitiveLo: 40000, SensitiveHi: 160000,
	})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	engine.Start()

	// Read events line by line; cancel over HTTP at the first level event,
	// then require the stream to terminate within a tight deadline — ~98
	// levels were still unswept, so a prompt EOF proves the cancellation
	// interrupted the sweep rather than waiting it out.
	var canceledAt time.Time
	var terminal *service.Event
	levelEvents := 0
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for scanner.Scan() {
		var ev service.Event
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", scanner.Text(), err)
		}
		switch ev.Type {
		case service.EventLevel:
			levelEvents++
			if canceledAt.IsZero() {
				cancelResp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "", nil)
				if err != nil {
					t.Fatal(err)
				}
				cancelResp.Body.Close()
				if cancelResp.StatusCode != http.StatusAccepted {
					t.Fatalf("cancel status %d", cancelResp.StatusCode)
				}
				canceledAt = time.Now()
			}
		case service.EventStatus:
			terminal = &ev
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if levelEvents == 0 || canceledAt.IsZero() {
		t.Fatal("no level event arrived before the sweep finished")
	}
	if terminal == nil {
		t.Fatal("stream ended without a terminal status event")
	}
	if terminal.Status.State != service.StateCanceled {
		t.Fatalf("terminal state %s, want canceled", terminal.Status.State)
	}
	if waited := time.Since(canceledAt); waited > 30*time.Second {
		t.Fatalf("stream took %s to end after cancel", waited)
	}
	if levelEvents >= 99 {
		t.Fatalf("stream delivered %d level events after a mid-sweep cancel", levelEvents)
	}
}

// TestEndToEndFREDSweep is the integration test of the serving layer: upload
// the private table P and the adversary's web-gathered Q over HTTP, run an
// asynchronous fred-sweep job through the worker pool, poll it to
// completion, download the optimal fusion-resilient release as CSV — then
// repeat the identical sweep and require a cache hit.
func TestEndToEndFREDSweep(t *testing.T) {
	ts, _ := newTestServer(t, true)
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 40})
	if err != nil {
		t.Fatal(err)
	}

	pInfo := uploadTable(t, ts.URL, "faculty-P", sc.P)
	qInfo := uploadTable(t, ts.URL, "web-Q", sc.Q)

	spec := service.Spec{
		Type: service.JobFREDSweep, Table: pInfo.ID, Aux: qInfo.ID,
		MinK: 2, MaxK: 16,
		SensitiveLo: 40000, SensitiveHi: 160000,
	}
	st := submitJob(t, ts.URL, spec)
	st = pollJob(t, ts.URL, st.ID)
	if st.State != service.StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	if st.Cached {
		t.Fatal("first sweep must compute, not hit the cache")
	}
	optK := int(st.Summary["optimal_k"])
	if optK < 2 || optK > 16 {
		t.Fatalf("optimal k %d outside sweep range", optK)
	}

	// Download the optimal release and verify it is a faithful table: same
	// cohort, same schema, sensitive column suppressed.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download status %d", resp.StatusCode)
	}
	release, err := dataset.ReadCSV(resp.Body)
	if err != nil {
		t.Fatalf("result is not valid table CSV: %v", err)
	}
	if release.NumRows() != sc.P.NumRows() {
		t.Fatalf("release has %d rows, want %d", release.NumRows(), sc.P.NumRows())
	}
	for _, c := range release.Schema().IndicesOf(dataset.Sensitive) {
		for r := 0; r < release.NumRows(); r++ {
			if !release.Cell(r, c).IsNull() {
				t.Fatalf("row %d: sensitive cell leaked into the release", r)
			}
		}
	}

	// The repeated identical sweep is served from the cache.
	st2 := submitJob(t, ts.URL, spec)
	st2 = pollJob(t, ts.URL, st2.ID)
	if st2.State != service.StateDone || !st2.Cached {
		t.Fatalf("repeat sweep: state %s cached %v, want cached hit", st2.State, st2.Cached)
	}
	if int(st2.Summary["optimal_k"]) != optK {
		t.Fatalf("cache returned different optimum: %v vs %d", st2.Summary["optimal_k"], optK)
	}
}

// TestFREDSweepNonFiniteQuasiIdentifierFails: a NaN cell in one of P's
// compared columns parses as a number at upload, but neither anonymizer
// (MDAV cannot order distances to it, Mondrian cannot order the column) nor
// the dissimilarity metrics can use it, so a sweep or an anonymize job ends
// failed with an error naming the column, and the job's status and event
// stream stay encodable. Sweep subtests are named scheme/column.
func TestFREDSweepNonFiniteQuasiIdentifierFails(t *testing.T) {
	for _, tc := range []struct {
		typ            service.JobType
		scheme, column string
	}{
		{service.JobFREDSweep, "mdav", "Teaching"},
		{service.JobFREDSweep, "mondrian", "Teaching"},
		{service.JobFREDSweep, "mdav", "Salary"},
		{service.JobAnonymize, "mondrian", "Teaching"},
		{service.JobAnonymize, "mdav", "Teaching"},
	} {
		name := tc.scheme + "/" + tc.column
		if tc.typ != service.JobFREDSweep {
			name = string(tc.typ) + "/" + name
		}
		t.Run(name, func(t *testing.T) {
			ts, _ := newTestServer(t, true)
			sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 40})
			if err != nil {
				t.Fatal(err)
			}
			var csvBody bytes.Buffer
			if err := dataset.WriteCSV(&csvBody, sc.P); err != nil {
				t.Fatal(err)
			}
			// Lines 0 and 1 are the headers.
			lines := strings.Split(csvBody.String(), "\n")
			col := slices.Index(strings.Split(lines[0], ","), tc.column)
			if col < 0 {
				t.Fatalf("no %s column in %q", tc.column, lines[0])
			}
			fields := strings.Split(lines[5], ",")
			fields[col] = "NaN"
			lines[5] = strings.Join(fields, ",")
			resp, err := http.Post(ts.URL+"/v1/tables?name=P", "text/csv", strings.NewReader(strings.Join(lines, "\n")))
			if err != nil {
				t.Fatal(err)
			}
			var pInfo service.TableInfo
			func() {
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("upload with a NaN cell: status %d", resp.StatusCode)
				}
				decodeJSON(t, resp.Body, &pInfo)
			}()
			qInfo := uploadTable(t, ts.URL, "Q", sc.Q)

			spec := service.Spec{
				Type: service.JobFREDSweep, Table: pInfo.ID, Aux: qInfo.ID,
				Scheme: tc.scheme, MinK: 2, MaxK: 6,
				SensitiveLo: 40000, SensitiveHi: 160000,
			}
			if tc.typ == service.JobAnonymize {
				spec = service.Spec{Type: service.JobAnonymize, Table: pInfo.ID, Scheme: tc.scheme, K: 2}
			}
			st := submitJob(t, ts.URL, spec)
			st = pollJob(t, ts.URL, st.ID)
			if st.State != service.StateFailed {
				t.Fatalf("%s over a NaN cell ended %s, want failed", tc.typ, st.State)
			}
			if !strings.Contains(st.Error, strconv.Quote(tc.column)) || !strings.Contains(st.Error, "non-finite") {
				t.Fatalf("error %q does not name the non-finite %s column", st.Error, tc.column)
			}
			events := fetchEvents(t, ts.URL, st.ID, "", "")
			if len(events) == 0 || events[len(events)-1].Status == nil || events[len(events)-1].Status.State != service.StateFailed {
				t.Fatalf("event stream does not end with the failed status: %+v", events)
			}
		})
	}
}

// fetchEvents reads a full event stream (NDJSON for easy parsing) with the
// given resume cursor headers/query and returns the decoded events.
func fetchEvents(t *testing.T, baseURL, id, query, lastEventID string) []service.Event {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, baseURL+"/v1/jobs/"+id+"/events"+query, nil)
	req.Header.Set("Accept", "application/x-ndjson")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	var events []service.Event
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		if len(strings.TrimSpace(scanner.Text())) == 0 {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", scanner.Text(), err)
		}
		events = append(events, ev)
	}
	return events
}

// TestJobEventStreamResume: a reconnecting client presenting the seq of the
// last event it processed — via ?after= or the SSE Last-Event-ID header —
// skips the already-delivered replay and receives only the events past its
// cursor, closed by the terminal status.
func TestJobEventStreamResume(t *testing.T) {
	ts, _ := newTestServer(t, true)
	sc, err := repro.UniversityScenario(repro.ScenarioOptions{Seed: 42, N: 40})
	if err != nil {
		t.Fatal(err)
	}
	pInfo := uploadTable(t, ts.URL, "P", sc.P)
	qInfo := uploadTable(t, ts.URL, "Q", sc.Q)
	st := submitJob(t, ts.URL, service.Spec{
		Type: service.JobFREDSweep, Table: pInfo.ID, Aux: qInfo.ID,
		MinK: 2, MaxK: 10,
		SensitiveLo: 40000, SensitiveHi: 160000,
	})
	if st = pollJob(t, ts.URL, st.ID); st.State != service.StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}

	full := fetchEvents(t, ts.URL, st.ID, "", "")
	if len(full) < 4 {
		t.Fatalf("full stream delivered %d events, want ≥ 3 levels + terminal", len(full))
	}
	levels := full[:len(full)-1]
	for i, ev := range levels {
		if ev.Type != service.EventLevel || ev.Seq == 0 {
			t.Fatalf("level event %d lacks a resume seq: %+v", i, ev)
		}
		if i > 0 && ev.Seq <= levels[i-1].Seq {
			t.Fatalf("event seqs not increasing: %d after %d", ev.Seq, levels[i-1].Seq)
		}
	}

	// Reconnect as if the connection dropped after the second level.
	cursor := levels[1].Seq
	for name, resumed := range map[string][]service.Event{
		"after-query":   fetchEvents(t, ts.URL, st.ID, fmt.Sprintf("?after=%d", cursor), ""),
		"last-event-id": fetchEvents(t, ts.URL, st.ID, "", fmt.Sprintf("%d", cursor)),
	} {
		wantLevels := len(levels) - 2
		if len(resumed) != wantLevels+1 {
			t.Fatalf("%s: resumed stream delivered %d events, want %d levels + terminal",
				name, len(resumed), wantLevels)
		}
		for i, ev := range resumed[:wantLevels] {
			if ev.Seq != levels[i+2].Seq || ev.Level.K != levels[i+2].Level.K {
				t.Fatalf("%s: resumed event %d is seq %d k=%d, want seq %d k=%d",
					name, i, ev.Seq, ev.Level.K, levels[i+2].Seq, levels[i+2].Level.K)
			}
		}
		if last := resumed[len(resumed)-1]; last.Type != service.EventStatus || last.Status == nil {
			t.Fatalf("%s: resumed stream did not close with a terminal status", name)
		}
	}

	// A cursor past everything still yields the terminal status.
	tail := fetchEvents(t, ts.URL, st.ID, fmt.Sprintf("?after=%d", levels[len(levels)-1].Seq), "")
	if len(tail) != 1 || tail[0].Type != service.EventStatus {
		t.Fatalf("cursor-past-all stream = %+v, want only the terminal status", tail)
	}

	// A malformed cursor is a client error.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events?after=banana", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed cursor status %d, want 400", resp.StatusCode)
	}
}
