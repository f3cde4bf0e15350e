// Package service is the serving layer over the FRED core: a table store
// plus an asynchronous job engine with a bounded worker pool, per-job
// progress/cancellation, and an LRU result cache. It is the subsystem
// behind internal/httpapi and cmd/served — the paper's workload (an
// enterprise re-running FRED over evolving releases against web-fusion
// adversaries) run as a service instead of a one-shot CLI.
//
// The service is multi-tenant: tables live in per-tenant namespaces, jobs
// are tenant-scoped, and per-tenant quotas bound tables, concurrent jobs
// and result-cache share (see tenant.go and DESIGN.md). Storage is
// pluggable: the store persists through a TableBackend and the engine
// journals through a JobBackend write-ahead log. The in-memory backends
// preserve the ephemeral behavior; internal/service/diskstore makes the
// plane durable — tables as columnar snapshots under tenant-prefixed
// paths, jobs and per-level sweep checkpoints in a WAL — and
// Engine.Recover rebuilds the service after a restart, re-submitting
// interrupted fred-sweeps holding every level they checkpointed, so they
// compute only the rest and finish byte-identical to an uninterrupted run.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
)

// TableInfo is the store's metadata record for one table.
type TableInfo struct {
	// ID is the store-assigned handle ("tbl-1", "tbl-2", …), unique within
	// the owning tenant's namespace — two tenants each have their own tbl-1.
	ID string `json:"id"`
	// Tenant is the owning tenant's namespace.
	Tenant string `json:"tenant,omitempty"`
	// Name is the caller-supplied label (upload filename, scenario name).
	Name string `json:"name"`
	// Rows and Cols record the table shape.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Hash is a content hash over the canonical columnar fingerprint;
	// identical tables hash identically, which is what keys the job result
	// cache.
	Hash string `json:"hash"`
	// Created is the upload time.
	Created time.Time `json:"created"`
}

// Store is the concurrency-safe table store: the ID-assignment and caching
// layer over a TableBackend, partitioned into per-tenant namespaces. Every
// table stays resident in memory (jobs hold live pointers); the backend
// decides whether tables additionally survive restarts. Tables are
// immutable once stored: Get hands out the stored pointer and every job
// clones before mutating, matching dataset.Table's concurrent-reads
// contract.
type Store struct {
	mu      sync.RWMutex
	backend TableBackend
	quotas  *Quotas
	seq     map[string]int                    // tenant → highest issued handle
	tables  map[string]map[string]storedTable // tenant → id → table
}

type storedTable struct {
	info  TableInfo
	table *dataset.Table
}

// NewStore returns an empty store over the ephemeral in-memory backend.
func NewStore() *Store {
	return NewStoreWith(NewMemTableBackend())
}

// NewStoreWith returns an empty store persisting through backend. Call Open
// to load previously persisted tables.
func NewStoreWith(backend TableBackend) *Store {
	return &Store{
		backend: backend,
		seq:     make(map[string]int),
		tables:  make(map[string]map[string]storedTable),
	}
}

// SetQuotas installs the per-tenant quota table consulted by Put. Call it
// before the store starts serving; a nil Quotas leaves every tenant
// unlimited.
func (s *Store) SetQuotas(q *Quotas) {
	s.mu.Lock()
	s.quotas = q
	s.mu.Unlock()
}

// Open loads every table persisted in the backend into the store and
// restores each tenant's ID sequence past the highest loaded handle. It is
// the first half of crash recovery (Engine.Recover replays the job log
// second) and must run before the store starts serving. Records without a
// tenant — persisted before multi-tenancy — are adopted into DefaultTenant.
func (s *Store) Open() error {
	recs, err := s.backend.LoadTables()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		if rec.Info.Tenant == "" {
			rec.Info.Tenant = DefaultTenant
		}
		ns := s.tables[rec.Info.Tenant]
		if ns == nil {
			ns = make(map[string]storedTable)
			s.tables[rec.Info.Tenant] = ns
		}
		ns[rec.Info.ID] = storedTable{info: rec.Info, table: rec.Table}
		if n := seqOf(rec.Info.ID); n > s.seq[rec.Info.Tenant] {
			s.seq[rec.Info.Tenant] = n
		}
	}
	return nil
}

// Durable reports whether the store's backend outlives the process.
func (s *Store) Durable() bool { return s.backend.Durable() }

// PutBlob persists an auxiliary table (a job result) keyed by content hash.
func (s *Store) PutBlob(hash string, t *dataset.Table) error {
	return s.backend.PutBlob(hash, t)
}

// Blob loads an auxiliary table by content hash.
func (s *Store) Blob(hash string) (*dataset.Table, error) {
	return s.backend.GetBlob(hash)
}

// ErrNotFound is returned for unknown table or job IDs — including IDs that
// exist in another tenant's namespace: a foreign handle must be
// indistinguishable from a nonexistent one.
type ErrNotFound struct{ Kind, ID string }

func (e *ErrNotFound) Error() string { return fmt.Sprintf("service: no %s %q", e.Kind, e.ID) }

// Put stores a table under a fresh ID in tenant's namespace and returns its
// metadata. The table is persisted through the backend before it becomes
// visible — a durable store never lists a table it could not reload. The
// caller must not mutate the table afterwards. A tenant at its MaxTables
// quota is refused with a QuotaError.
func (s *Store) Put(tenant, name string, t *dataset.Table) (TableInfo, error) {
	if err := ValidateTenant(tenant); err != nil {
		return TableInfo{}, err
	}
	if t == nil || t.NumRows() == 0 {
		return TableInfo{}, fmt.Errorf("service: refusing to store an empty table")
	}
	h, err := HashTable(t)
	if err != nil {
		return TableInfo{}, err
	}
	s.mu.Lock()
	if q := s.quotas.For(tenant); q.MaxTables > 0 && len(s.tables[tenant]) >= q.MaxTables {
		s.mu.Unlock()
		return TableInfo{}, &QuotaError{Tenant: tenant, Resource: "tables", Limit: q.MaxTables}
	}
	s.seq[tenant]++
	info := TableInfo{
		ID:      fmt.Sprintf("tbl-%d", s.seq[tenant]),
		Tenant:  tenant,
		Name:    name,
		Rows:    t.NumRows(),
		Cols:    t.NumCols(),
		Hash:    h,
		Created: time.Now(),
	}
	s.mu.Unlock()
	// Backend I/O (a snapshot write, for disk backends) runs outside the
	// lock so slow uploads never block concurrent Gets.
	if err := s.backend.PutTable(TableRecord{Info: info, Table: t}); err != nil {
		return TableInfo{}, fmt.Errorf("service: persist table: %w", err)
	}
	s.mu.Lock()
	// Re-check the quota before the table becomes visible: the lock was
	// dropped for the backend write, so a concurrent upload may have taken
	// the last slot. The loser undoes its persisted record and refuses —
	// without this, two racing uploads both passing the first check would
	// land a tenant above its MaxTables.
	if q := s.quotas.For(tenant); q.MaxTables > 0 && len(s.tables[tenant]) >= q.MaxTables {
		s.mu.Unlock()
		s.backend.DeleteTable(tenant, info.ID) //nolint:errcheck // best-effort undo; orphans are swept at boot
		return TableInfo{}, &QuotaError{Tenant: tenant, Resource: "tables", Limit: q.MaxTables}
	}
	ns := s.tables[tenant]
	if ns == nil {
		ns = make(map[string]storedTable)
		s.tables[tenant] = ns
	}
	ns[info.ID] = storedTable{info: info, table: t}
	s.mu.Unlock()
	return info, nil
}

// Get returns the table and metadata for an ID in tenant's namespace.
func (s *Store) Get(tenant, id string) (*dataset.Table, TableInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.tables[tenant][id]
	if !ok {
		return nil, TableInfo{}, &ErrNotFound{Kind: "table", ID: id}
	}
	return st.table, st.info, nil
}

// List returns metadata for every table in tenant's namespace, oldest first.
func (s *Store) List(tenant string) []TableInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]TableInfo, 0, len(s.tables[tenant]))
	for _, st := range s.tables[tenant] {
		out = append(out, st.info)
	}
	sort.Slice(out, func(i, j int) bool { return seqOf(out[i].ID) < seqOf(out[j].ID) })
	return out
}

// ListAll returns metadata for every stored table across all tenants,
// ordered by tenant then handle — the operational view (recovery logging,
// TTL eviction), never exposed through the tenant-scoped API.
func (s *Store) ListAll() []TableInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []TableInfo
	for _, ns := range s.tables {
		for _, st := range ns {
			out = append(out, st.info)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return seqOf(out[i].ID) < seqOf(out[j].ID)
	})
	return out
}

// Delete removes a table from tenant's namespace and its backend. The
// backend goes first: if its delete fails, the in-memory entry survives, so
// the client can retry and a restart cannot resurrect a table the API
// reported gone. Jobs already holding the pointer keep working — tables are
// immutable, so this only frees the handle.
func (s *Store) Delete(tenant, id string) error {
	s.mu.RLock()
	_, ok := s.tables[tenant][id]
	s.mu.RUnlock()
	if !ok {
		return &ErrNotFound{Kind: "table", ID: id}
	}
	if err := s.backend.DeleteTable(tenant, id); err != nil {
		return fmt.Errorf("service: delete table: %w", err)
	}
	s.mu.Lock()
	delete(s.tables[tenant], id)
	s.mu.Unlock()
	return nil
}

// Evict removes every table (across all tenants) created at or before
// cutoff for which keep returns false, from the store and its backend,
// returning the evicted metadata. It is the TTL garbage collection
// primitive; Engine.EvictTables supplies the keep predicate that protects
// tables referenced by live jobs.
func (s *Store) Evict(cutoff time.Time, keep func(TableInfo) bool) []TableInfo {
	s.mu.RLock()
	var victims []TableInfo
	for _, ns := range s.tables {
		for _, st := range ns {
			if !st.info.Created.After(cutoff) && (keep == nil || !keep(st.info)) {
				victims = append(victims, st.info)
			}
		}
	}
	s.mu.RUnlock()
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].Tenant != victims[j].Tenant {
			return victims[i].Tenant < victims[j].Tenant
		}
		return seqOf(victims[i].ID) < seqOf(victims[j].ID)
	})
	evicted := victims[:0]
	for _, info := range victims {
		if err := s.Delete(info.Tenant, info.ID); err == nil {
			evicted = append(evicted, info)
		}
	}
	return evicted
}

func seqOf(id string) int {
	var n int
	fmt.Sscanf(id, "tbl-%d", &n)
	return n
}

// HashTable content-hashes a table via its canonical columnar fingerprint,
// so equal schemas+cells produce equal hashes regardless of how the table
// was built. This keys the job result cache, where a collision would serve
// one client another's cached release — hence a cryptographic hash, not a
// checksum. Hashing the column buffers (float bits, dictionary bytes)
// instead of rendering every cell through the CSV writer keeps Submit cheap
// on large uploads.
func HashTable(t *dataset.Table) (string, error) {
	h := sha256.New()
	if err := t.WriteFingerprint(h); err != nil {
		return "", fmt.Errorf("service: hash table: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
