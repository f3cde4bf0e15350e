package service

import (
	"errors"
	"fmt"
)

// This file implements garbage collection of content-addressed result blobs.
// Blobs are written by persistTerminal for every durable done job and are shared
// by content, so nothing deletes them eagerly: Engine.Delete, retention
// eviction and WAL compaction all leave the blob space alone. GCBlobs is the
// reclaim path: it walks the backend's blob space and deletes every blob not
// reachable from (a) a job still in the engine's log, (b) a result-cache
// entry, or (c) a stored table's content hash (defensive: table snapshots
// live in a separate space, but a backend is free to unify them).

// BlobInfo describes one content-addressed blob in a backend's blob space.
type BlobInfo struct {
	Hash  string
	Bytes int64
}

// BlobGC is the optional TableBackend extension blob garbage collection
// requires. Backends that do not implement it (the in-memory ones) simply
// cannot leak blobs across restarts, so GCBlobs refuses with ErrNoBlobGC.
type BlobGC interface {
	// ListBlobs enumerates every blob currently stored.
	ListBlobs() ([]BlobInfo, error)
	// DeleteBlob removes one blob; deleting an absent blob is not an error.
	DeleteBlob(hash string) error
}

// ErrNoBlobGC is returned by GCBlobs when the table backend has no blob
// enumeration support.
var ErrNoBlobGC = errors.New("service: table backend does not support blob GC")

// GCReport summarizes one blob garbage-collection pass.
type GCReport struct {
	// DryRun reports that nothing was deleted.
	DryRun bool `json:"dry_run"`
	// Scanned is the number of blobs enumerated.
	Scanned int `json:"scanned"`
	// Live is the number of blobs referenced by a job, cache entry or table.
	Live int `json:"live"`
	// Reclaimed counts unreferenced blobs deleted (or, on a dry run, that
	// would have been deleted).
	Reclaimed int `json:"reclaimed"`
	// BytesReclaimed is their cumulative size.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// Unreferenced lists the reclaimable hashes on a dry run.
	Unreferenced []string `json:"unreferenced,omitempty"`
}

// GCBlobs deletes every result blob unreferenced by live jobs, the result
// cache, or the stored tables. With dryRun it only reports what a real pass
// would delete. It is safe to run while the engine is serving: every blob a
// job references is rooted in the job (resultRec) before it is written, and
// the pass reads the job roots, lists and deletes under blobMu's write lock
// while a finishing job roots and writes its blob under the read lock. So a
// blob a job has rooted is never reclaimed, and a blob reclaimed just
// before a job roots the same content is written again — a job is
// published done only after that write.
func (e *Engine) GCBlobs(dryRun bool) (GCReport, error) {
	gc, ok := e.store.backend.(BlobGC)
	if !ok {
		return GCReport{}, ErrNoBlobGC
	}
	live, err := e.cacheAndTableHashes()
	if err != nil {
		return GCReport{}, err
	}
	e.blobMu.Lock()
	defer e.blobMu.Unlock()
	e.addJobRoots(live)
	blobs, err := gc.ListBlobs()
	if err != nil {
		return GCReport{}, fmt.Errorf("service: list blobs: %w", err)
	}
	rep := GCReport{DryRun: dryRun, Scanned: len(blobs)}
	for _, b := range blobs {
		if live[b.Hash] {
			rep.Live++
			continue
		}
		if dryRun {
			rep.Unreferenced = append(rep.Unreferenced, b.Hash)
		} else if err := gc.DeleteBlob(b.Hash); err != nil {
			return rep, fmt.Errorf("service: delete blob %s: %w", b.Hash, err)
		}
		rep.Reclaimed++
		rep.BytesReclaimed += b.Bytes
	}
	e.metrics.gcRuns.With().Inc()
	if !dryRun {
		e.metrics.gcReclaimed.With().Add(float64(rep.Reclaimed))
		e.metrics.gcBytes.With().Add(float64(rep.BytesReclaimed))
	}
	e.logger.Info("blob gc pass",
		"dry_run", dryRun, "scanned", rep.Scanned, "live", rep.Live,
		"reclaimed", rep.Reclaimed, "bytes_reclaimed", rep.BytesReclaimed)
	return rep, nil
}

// addJobRoots adds every blob hash rooted by a job in the engine's log to
// live. Callers hold blobMu's write lock.
func (e *Engine) addJobRoots(live map[string]bool) {
	e.mu.RLock()
	jobs := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.RUnlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.resultRec != nil && j.resultRec.TableHash != "" {
			live[j.resultRec.TableHash] = true
		}
		j.mu.Unlock()
	}
}

// cacheAndTableHashes computes the GC roots outside the job log: every
// cached result's table and every stored table. They need no lock against
// finishing jobs, which root their own blobs (addJobRoots).
func (e *Engine) cacheAndTableHashes() (map[string]bool, error) {
	live := make(map[string]bool)
	// Cached results hold their tables in memory; hashing them re-derives
	// the content address their blob (if any) lives under. Hash outside the
	// cache lock — fingerprinting a large table is not cheap.
	var tables []*Result
	e.cache.Each(func(res *Result) { tables = append(tables, res) })
	for _, res := range tables {
		if res.Table == nil {
			continue
		}
		h, err := HashTable(res.Table)
		if err != nil {
			return nil, fmt.Errorf("service: hash cached result: %w", err)
		}
		live[h] = true
	}
	// Stored tables' content hashes, defensively: table snapshots live in a
	// separate space under diskstore, but the reachability contract ("not
	// referenced by tables.json") must not depend on that layout.
	for _, info := range e.store.ListAll() {
		if info.Hash != "" {
			live[info.Hash] = true
		}
	}
	return live, nil
}
