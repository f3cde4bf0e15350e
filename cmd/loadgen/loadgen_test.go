package main

import (
	"context"
	"log/slog"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
)

// TestLoadgenSmoke runs the whole harness against an in-process server: an
// authenticated two-tenant deployment with a deliberately tiny admission
// envelope, so the run exercises both the happy path (jobs complete, with
// latencies) and the shed path (429 + Retry-After honored). The duration is
// short by default; CI's race job stretches it via LOADGEN_SMOKE_DURATION.
func TestLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load generation loop")
	}
	duration := 3 * time.Second
	if v := os.Getenv("LOADGEN_SMOKE_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad LOADGEN_SMOKE_DURATION %q: %v", v, err)
		}
		duration = d
	}

	store := service.NewStore()
	if err := store.Open(); err != nil {
		t.Fatal(err)
	}
	engine := service.NewEngine(store, service.Options{
		Workers: 1, SweepWorkers: 1,
		QueueDepth: 2, MaxPendingPerTenant: 1,
		CacheSize: -1, // every submission runs, keeping the queue under pressure
	})
	engine.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		engine.Shutdown(ctx)
	})

	auth, err := httpapi.NewAuth(map[string]string{
		"acme-key-123": "acme",
		"zeta-key-456": "zeta",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.New(store, engine, slog.New(slog.DiscardHandler), httpapi.WithAuth(auth)))
	t.Cleanup(srv.Close)

	rep, err := run(context.Background(), Config{
		Addr: srv.URL,
		Tenants: []TenantKey{
			{Tenant: "acme", Key: "acme-key-123"},
			{Tenant: "zeta", Key: "zeta-key-456"},
		},
		WorkersPerTenant: 4,
		Duration:         duration,
		Rows:             120,
		Seed:             7,
		AttackFraction:   0.4,
		PollInterval:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("loadgen report: %s", rep)

	if rep.Tenants != 2 {
		t.Fatalf("drove %d tenants, want 2", rep.Tenants)
	}
	if rep.Completed == 0 {
		t.Fatal("no jobs completed — the harness never exercised the happy path")
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("implausible latency percentiles: p50=%v p99=%v", rep.P50, rep.P99)
	}
	// 8 workers offering into a 1-worker, depth-2 queue with per-tenant
	// bound 1 and no result cache must shed: if it never does, admission
	// control is not reaching the submit path.
	if rep.Shed == 0 {
		t.Fatal("no submissions shed — admission control never engaged under pressure")
	}
	if rep.ShedRate <= 0 || rep.ShedRate >= 1 {
		t.Fatalf("shed rate %v outside (0,1)", rep.ShedRate)
	}
}
