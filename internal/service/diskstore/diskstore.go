// Package diskstore is the disk-backed storage plane behind the service: a
// service.TableBackend persisting tables as content-addressed columnar
// snapshots, and a service.JobBackend persisting the job log as a JSON-lines
// write-ahead log. With both plugged in, `served -data-dir` survives
// restarts: uploaded tables reload, finished jobs keep their results, and
// interrupted fred-sweeps resume holding every level they checkpointed.
//
// Layout under the data directory:
//
//	tables/<tenant>/<sha256>.snap
//	                       columnar table snapshots (dataset.WriteSnapshot),
//	                       content-addressed within each tenant's directory —
//	                       identical uploads by one tenant share a file,
//	                       identical uploads by two tenants do not share
//	                       anything observable
//	results/<sha256>.snap  job result tables ("blobs"), same format; reached
//	                       only through tenant-scoped job results
//	tables.json            versioned table metadata: {"version": 2,
//	                       "tables": [service.TableInfo…]}, rewritten
//	                       atomically (tmp + rename) on every change
//	jobs-<seq>.wal         the job WAL, as numbered segments: one JSON
//	                       service.WALRecord per line (job records carry the
//	                       owning tenant), appended flushed (kill -9 safe),
//	                       fsynced on terminal records. Appends go to the
//	                       highest-numbered segment; WithWALRotation rolls to
//	                       a fresh segment on size/age. A compaction (boot's
//	                       Engine.Recover, or Engine.CompactLog online) writes
//	                       the live image into a NEW segment led by a
//	                       compaction-marker line and unlinks everything
//	                       older; replay starts at the newest marker-led
//	                       segment and spans the rest in order.
//
// A pre-tenancy data directory — a bare-array tables.json and snapshots
// directly under tables/ — is migrated on Open: every table is adopted into
// service.DefaultTenant, its snapshot moved under tables/default/, and the
// metadata rewritten in the versioned format. WAL job records without a
// tenant field are adopted by Engine.Recover the same way, so a v1
// directory recovers byte-identical under the default tenant. A
// pre-segmentation single-file jobs.wal is likewise adopted on Open as the
// oldest segment.
//
// A torn final WAL line in the ACTIVE (last) segment — the signature of a
// crash mid-append — is ignored on replay; rotated-away segments are
// immutable and synced, so corruption anywhere else fails recovery loudly.
// A crash between a compaction's rename and its unlinking of superseded
// segments leaves stale older segments behind; Open detects the newer
// marker-led segment and removes them.
package diskstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/service"
)

// Store implements service.TableBackend and service.JobBackend over one
// data directory. It is safe for concurrent use.
type Store struct {
	dir string

	// mu guards the table metadata (infos + tables.json) and serializes
	// snapshot dedup against last-reference deletes. walMu guards the WAL
	// handle. They are deliberately separate: a long table-snapshot upload
	// must not stall WAL appends — every submission and every running
	// sweep's checkpoint/event publication goes through the WAL.
	mu    sync.Mutex
	infos map[tableKey]service.TableInfo

	walMu sync.Mutex
	wal   *os.File
	lock  *os.File
	// walSeq is the active segment number (appends go to jobs-<walSeq>.wal);
	// segBytes/segBorn track its size and creation time for rotation. All
	// guarded by walMu.
	walSeq   int
	segBytes int64
	segBorn  time.Time

	// rotateBytes/rotateAge are the segment-roll thresholds (WithWALRotation;
	// zero disables that trigger). Set before serving, read-only after.
	rotateBytes int64
	rotateAge   time.Duration

	// metrics instruments the WAL and snapshot paths; its zero value (no
	// WithMetrics option) records nothing.
	metrics storeMetrics
}

// tableKey identifies a table on disk: handles are only unique per tenant.
type tableKey struct{ tenant, id string }

// metaVersion is the tables.json format version. Version 1 was a bare
// TableInfo array with no tenant field; version 2 wraps the list in a
// versioned envelope and every entry names its tenant.
const metaVersion = 2

// metaFile is the versioned tables.json envelope.
type metaFile struct {
	Version int                 `json:"version"`
	Tables  []service.TableInfo `json:"tables"`
}

// Open creates (if needed) and opens a data directory, taking an exclusive
// lock on it — a second process pointed at the same directory is refused
// rather than allowed to interleave a divergent history into the WAL. The
// returned Store serves as both the table backend (service.NewStoreWith)
// and the job log (service.Options.JobLog).
func Open(dir string, opts ...Option) (*Store, error) {
	for _, sub := range []string{"", "tables", "results"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("diskstore: %w", err)
		}
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, infos: make(map[tableKey]service.TableInfo), lock: lock}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.loadMeta(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	s.sweepOrphans()
	if err := s.openWAL(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	return s, nil
}

// openWAL adopts any legacy single-file WAL, removes segments a crashed
// compaction left superseded, opens the newest segment for appending and
// seeds the size accounting.
func (s *Store) openWAL() error {
	// Pre-segmentation layout: adopt jobs.wal as the oldest segment. Segment
	// 0 is reserved for the (never-observed-in-practice) case of a legacy
	// file coexisting with numbered segments: it sorts before all of them,
	// which is where an older history belongs.
	if _, err := os.Stat(s.legacyWALPath()); err == nil {
		segs, err := s.listSegments()
		if err != nil {
			return err
		}
		target := 1
		if len(segs) > 0 {
			target = 0
		}
		if err := os.Rename(s.legacyWALPath(), s.segPath(target)); err != nil {
			return fmt.Errorf("diskstore: adopt legacy wal: %w", err)
		}
	}
	segs, err := s.listSegments()
	if err != nil {
		return err
	}
	// A compacted segment supersedes everything older. Normally CompactWAL
	// unlinks the stale segments itself; a crash between its rename and the
	// unlinks leaves them behind, and this is where they are cleaned up.
	newestCompact := -1
	for _, seq := range segs {
		if ok, err := s.segHasMarker(s.segPath(seq)); err == nil && ok {
			newestCompact = seq
		}
	}
	if newestCompact >= 0 {
		kept := segs[:0]
		for _, seq := range segs {
			if seq < newestCompact {
				os.Remove(s.segPath(seq)) //nolint:errcheck
				continue
			}
			kept = append(kept, seq)
		}
		segs = kept
	}
	active := 1
	if len(segs) > 0 {
		active = segs[len(segs)-1]
	}
	wal, err := os.OpenFile(s.segPath(active), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: open wal: %w", err)
	}
	s.wal = wal
	s.walSeq = active
	s.segBorn = time.Now()
	// Seed the size accounting from the files; appends, rotations and
	// compactions keep it current from here.
	var total int64
	for _, seq := range segs {
		if fi, err := os.Stat(s.segPath(seq)); err == nil {
			total += fi.Size()
		}
	}
	if fi, err := wal.Stat(); err == nil {
		s.segBytes = fi.Size()
		if len(segs) == 0 {
			total = fi.Size()
		}
	}
	s.metrics.walBytes.Store(total)
	return nil
}

// sweepOrphans removes crash debris at boot (best-effort, under the
// directory lock): temp files a kill between CreateTemp and Rename left
// behind, and table snapshots no metadata references — a PutTable whose
// tables.json write never landed. Result blobs are NOT swept here: they are
// referenced from the job WAL, which this layer does not interpret.
func (s *Store) sweepOrphans() {
	for _, pat := range []string{
		filepath.Join(s.dir, ".meta-*"),
		filepath.Join(s.dir, "tables", ".snap-*"),
		filepath.Join(s.dir, "tables", "*", ".snap-*"),
		filepath.Join(s.dir, "results", ".snap-*"),
	} {
		matches, _ := filepath.Glob(pat)
		for _, m := range matches {
			os.Remove(m) //nolint:errcheck
		}
	}
	referenced := make(map[[2]string]bool, len(s.infos))
	for _, info := range s.infos {
		referenced[[2]string{info.Tenant, info.Hash}] = true
	}
	snaps, _ := filepath.Glob(filepath.Join(s.dir, "tables", "*", "*.snap"))
	for _, path := range snaps {
		tenant := filepath.Base(filepath.Dir(path))
		hash := strings.TrimSuffix(filepath.Base(path), ".snap")
		if !referenced[[2]string{tenant, hash}] {
			os.Remove(path) //nolint:errcheck
		}
	}
	// Pre-migration leftovers directly under tables/ (the v1 layout keeps
	// nothing there once loadMeta has migrated).
	legacy, _ := filepath.Glob(filepath.Join(s.dir, "tables", "*.snap"))
	for _, path := range legacy {
		os.Remove(path) //nolint:errcheck
	}
}

// Close flushes and closes the job WAL and releases the directory lock.
// Call it after Engine.Shutdown — a graceful exit must not rely on the next
// crash recovery.
func (s *Store) Close() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	unlockDir(s.lock)
	s.lock = nil
	if s.wal == nil {
		return nil
	}
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

func (s *Store) legacyWALPath() string { return filepath.Join(s.dir, "jobs.wal") }
func (s *Store) metaPath() string      { return filepath.Join(s.dir, "tables.json") }
func (s *Store) segPath(seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("jobs-%08d.wal", seq))
}

// listSegments returns the on-disk WAL segment numbers, ascending.
func (s *Store) listSegments() ([]int, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "jobs-*.wal"))
	if err != nil {
		return nil, fmt.Errorf("diskstore: list wal segments: %w", err)
	}
	seqs := make([]int, 0, len(matches))
	for _, m := range matches {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(m), "jobs-%d.wal", &n); err == nil {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// segMarker is the control line opening every compacted segment. It is not a
// service.WALRecord: replay recognizes it by the field and skips it, and its
// presence is what tells Open (and replay) that every older segment is
// superseded.
type segMarker struct {
	CompactBase bool `json:"wal_compact_base"`
}

var segMarkerLine = []byte("{\"wal_compact_base\":true}\n")

// segHasMarker reports whether the segment's first line is the compaction
// marker.
func (s *Store) segHasMarker(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	line, err := bufio.NewReaderSize(f, 4096).ReadBytes('\n')
	if err != nil && !errors.Is(err, io.EOF) {
		return false, err
	}
	return isSegMarker(line), nil
}

func isSegMarker(line []byte) bool {
	var m segMarker
	return json.Unmarshal(line, &m) == nil && m.CompactBase
}
func (s *Store) tablePath(tenant, hash string) string {
	return filepath.Join(s.dir, "tables", tenant, hash+".snap")
}
func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.dir, "results", hash+".snap")
}

// --- TableBackend -----------------------------------------------------------

// PutTable persists the table as a content-addressed snapshot in its
// tenant's directory plus a metadata entry. The snapshot write is atomic
// (tmp + rename), so a crash mid-upload leaves either the previous state or
// the complete new one. The whole put runs under s.mu so the dedup check
// (snapshot already exists) cannot race DeleteTable's last-reference
// removal of the same hash — otherwise a delete could unlink the file a
// just-deduped upload's metadata is about to reference. The tenant name is
// re-validated here — it becomes a path component, and this layer must not
// trust the caller not to traverse.
func (s *Store) PutTable(rec service.TableRecord) error {
	if err := service.ValidateTenant(rec.Info.Tenant); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(filepath.Join(s.dir, "tables", rec.Info.Tenant), 0o755); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := s.writeSnapshot(s.tablePath(rec.Info.Tenant, rec.Info.Hash), rec.Table); err != nil {
		return err
	}
	s.infos[tableKey{rec.Info.Tenant, rec.Info.ID}] = rec.Info
	return s.writeMetaLocked()
}

// DeleteTable drops the metadata entry and, when no other table of the same
// tenant shares the content hash, the snapshot file. Unknown ids are a
// no-op.
func (s *Store) DeleteTable(tenant, id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := tableKey{tenant, id}
	info, ok := s.infos[key]
	if !ok {
		return nil
	}
	delete(s.infos, key)
	shared := false
	for k, other := range s.infos {
		if k.tenant == tenant && other.Hash == info.Hash {
			shared = true
			break
		}
	}
	if !shared {
		if err := os.Remove(s.tablePath(tenant, info.Hash)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("diskstore: remove snapshot: %w", err)
		}
	}
	return s.writeMetaLocked()
}

// LoadTables reloads every persisted table. A metadata entry whose snapshot
// is missing or corrupt fails the load: a durable store that silently drops
// tables is worse than one that refuses to start.
func (s *Store) LoadTables() ([]service.TableRecord, error) {
	s.mu.Lock()
	infos := make([]service.TableInfo, 0, len(s.infos))
	for _, info := range s.infos {
		infos = append(infos, info)
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Tenant != infos[j].Tenant {
			return infos[i].Tenant < infos[j].Tenant
		}
		return infos[i].ID < infos[j].ID
	})
	recs := make([]service.TableRecord, 0, len(infos))
	for _, info := range infos {
		t, err := s.readSnapshot(s.tablePath(info.Tenant, info.Hash))
		if err != nil {
			return nil, fmt.Errorf("diskstore: load table %s/%s: %w", info.Tenant, info.ID, err)
		}
		recs = append(recs, service.TableRecord{Info: info, Table: t})
	}
	return recs, nil
}

// PutBlob persists a result table under its content hash. Existing blobs
// are left untouched — content addressing makes re-puts no-ops.
func (s *Store) PutBlob(hash string, t *dataset.Table) error {
	return s.writeSnapshot(s.blobPath(hash), t)
}

// GetBlob reloads a result table by content hash.
func (s *Store) GetBlob(hash string) (*dataset.Table, error) {
	t, err := s.readSnapshot(s.blobPath(hash))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, &service.ErrNotFound{Kind: "blob", ID: hash}
	}
	return t, err
}

// ListBlobs enumerates the content-addressed result blobs on disk — the
// service.BlobGC walk behind Engine.GCBlobs.
func (s *Store) ListBlobs() ([]service.BlobInfo, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "results", "*.snap"))
	if err != nil {
		return nil, fmt.Errorf("diskstore: list blobs: %w", err)
	}
	blobs := make([]service.BlobInfo, 0, len(matches))
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			continue // raced a concurrent delete
		}
		blobs = append(blobs, service.BlobInfo{
			Hash:  strings.TrimSuffix(filepath.Base(m), ".snap"),
			Bytes: fi.Size(),
		})
	}
	return blobs, nil
}

// DeleteBlob removes one result blob; an absent blob is a no-op (GC races a
// re-put benignly — content addressing makes the re-put recreate identical
// bytes).
func (s *Store) DeleteBlob(hash string) error {
	err := os.Remove(s.blobPath(hash))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("diskstore: delete blob: %w", err)
	}
	if err == nil {
		s.metrics.blobsDeleted.Inc()
	}
	return nil
}

// Durable reports that this backend outlives the process.
func (s *Store) Durable() bool { return true }

// writeSnapshot writes a columnar snapshot atomically, skipping the write
// when the content-addressed file already exists.
func (s *Store) writeSnapshot(path string, t *dataset.Table) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	// The timer starts after the dedup check: a content-addressed no-op is
	// not a write and must not drag the latency distribution down.
	defer func(start time.Time) {
		s.metrics.snapWrite.Observe(time.Since(start).Seconds())
	}(time.Now())
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // no-op after the rename
	bw := bufio.NewWriterSize(tmp, 1<<16)
	if err := t.WriteSnapshot(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	return nil
}

func (s *Store) readSnapshot(path string) (*dataset.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defer func(start time.Time) {
		s.metrics.snapRead.Observe(time.Since(start).Seconds())
	}(time.Now())
	return dataset.ReadSnapshot(f)
}

// loadMeta reads tables.json; a missing file is an empty store. A version-1
// file — the pre-tenancy bare TableInfo array — triggers the one-time
// migration: every entry is adopted into service.DefaultTenant, its
// snapshot file moved from tables/<hash>.snap into the tenant directory,
// and the metadata rewritten in the versioned envelope, so the next boot
// reads a plain v2 store.
func (s *Store) loadMeta() error {
	raw, err := os.ReadFile(s.metaPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("diskstore: read metadata: %w", err)
	}
	var meta metaFile
	if err := json.Unmarshal(raw, &meta); err == nil && meta.Version != 0 {
		if meta.Version > metaVersion {
			return fmt.Errorf("diskstore: metadata version %d is newer than this binary understands (%d)", meta.Version, metaVersion)
		}
		for _, info := range meta.Tables {
			if info.Tenant == "" {
				info.Tenant = service.DefaultTenant
			}
			s.infos[tableKey{info.Tenant, info.ID}] = info
		}
		return nil
	}
	// Version 1: a bare array. Adopt and migrate the layout.
	var infos []service.TableInfo
	if err := json.Unmarshal(raw, &infos); err != nil {
		return fmt.Errorf("diskstore: parse metadata: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(s.dir, "tables", service.DefaultTenant), 0o755); err != nil {
		return fmt.Errorf("diskstore: migrate metadata: %w", err)
	}
	for _, info := range infos {
		info.Tenant = service.DefaultTenant
		oldPath := filepath.Join(s.dir, "tables", info.Hash+".snap")
		newPath := s.tablePath(info.Tenant, info.Hash)
		if err := os.Rename(oldPath, newPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			// ErrNotExist: a duplicate hash already moved it, or the
			// snapshot is genuinely missing — LoadTables reports the
			// latter loudly.
			return fmt.Errorf("diskstore: migrate snapshot %s: %w", info.Hash, err)
		}
		s.infos[tableKey{info.Tenant, info.ID}] = info
	}
	return s.writeMetaLocked()
}

// writeMetaLocked rewrites tables.json atomically in the versioned format.
// Callers hold s.mu.
func (s *Store) writeMetaLocked() error {
	meta := metaFile{Version: metaVersion, Tables: make([]service.TableInfo, 0, len(s.infos))}
	for _, info := range s.infos {
		meta.Tables = append(meta.Tables, info)
	}
	sort.Slice(meta.Tables, func(i, j int) bool {
		if meta.Tables[i].Tenant != meta.Tables[j].Tenant {
			return meta.Tables[i].Tenant < meta.Tables[j].Tenant
		}
		return meta.Tables[i].ID < meta.Tables[j].ID
	})
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("diskstore: marshal metadata: %w", err)
	}
	return atomicWrite(s.metaPath(), append(raw, '\n'))
}

// atomicWrite writes data to path via a synced temp file and rename.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".meta-*")
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	return nil
}

// --- JobBackend -------------------------------------------------------------

// AppendWAL appends one JSON line to the job WAL and flushes it to the OS:
// appended records survive kill -9. fsync is reserved for SyncWAL (terminal
// records and shutdown), trading power-loss durability on checkpoints for
// per-level append cost.
func (s *Store) AppendWAL(rec *service.WALRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("diskstore: marshal wal record: %w", err)
	}
	raw = append(raw, '\n')
	start := time.Now()
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return errors.New("diskstore: wal is closed")
	}
	if _, err := s.wal.Write(raw); err != nil {
		return fmt.Errorf("diskstore: append wal: %w", err)
	}
	// The latency includes lock wait: that is what a submitting caller
	// actually experiences when appends contend.
	s.metrics.walAppend.Observe(time.Since(start).Seconds())
	s.metrics.walBytes.Add(int64(len(raw)))
	s.segBytes += int64(len(raw))
	// Rotation is best-effort: the record above IS durable in the old
	// segment either way, so a failed roll (e.g. disk full creating the next
	// file) must not report the append as lost — it just retries on the
	// next append.
	s.maybeRotateLocked() //nolint:errcheck
	return nil
}

// maybeRotateLocked rolls to a fresh segment once the active one crosses the
// size or age threshold. Callers hold walMu.
func (s *Store) maybeRotateLocked() error {
	if s.segBytes == 0 {
		return nil
	}
	bySize := s.rotateBytes > 0 && s.segBytes >= s.rotateBytes
	byAge := s.rotateAge > 0 && time.Since(s.segBorn) >= s.rotateAge
	if !bySize && !byAge {
		return nil
	}
	return s.rotateLocked()
}

// rotateLocked closes the active segment (synced: a rotated-away segment is
// immutable from here on) and opens the next-numbered one. The new segment
// is opened first, so failure leaves the old one active. Callers hold walMu.
func (s *Store) rotateLocked() error {
	next, err := os.OpenFile(s.segPath(s.walSeq+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: rotate wal: %w", err)
	}
	s.wal.Sync()  //nolint:errcheck // best-effort, matching SyncWAL cadence
	s.wal.Close() //nolint:errcheck
	s.wal = next
	s.walSeq++
	s.segBytes = 0
	s.segBorn = time.Now()
	s.metrics.walRotations.Inc()
	return nil
}

// SyncWAL fsyncs the WAL to stable storage.
func (s *Store) SyncWAL() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return nil
	}
	s.metrics.walFsync.Inc()
	return s.wal.Sync()
}

// ReplayWAL streams every WAL record to fn in append order, spanning
// segments oldest to newest — starting at the newest compaction-marker-led
// segment, since everything older is superseded history. Only an
// UNTERMINATED final line of the LAST segment is forgiven: AppendWAL writes
// each record in one buffer whose last byte is the newline, so a crash
// mid-append can persist any prefix of a record but never its trailing
// newline — a newline-terminated line that fails to parse, or any short
// line in a rotated-away (immutable) segment, is genuine corruption (bit
// rot, sector damage) and fails recovery loudly.
func (s *Store) ReplayWAL(fn func(service.WALRecord) error) error {
	segs, err := s.listSegments()
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return nil
	}
	defer func(start time.Time) {
		s.metrics.walReplay.Observe(time.Since(start).Seconds())
	}(time.Now())
	start := 0
	for i, seq := range segs {
		if ok, err := s.segHasMarker(s.segPath(seq)); err == nil && ok {
			start = i
		}
	}
	for i := start; i < len(segs); i++ {
		if err := s.replaySegment(s.segPath(segs[i]), i == len(segs)-1, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment streams one segment's records to fn; last marks the active
// segment, the only one whose torn tail is a crash artifact.
func (s *Store) replaySegment(path string, last bool, fn func(service.WALRecord) error) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("diskstore: open wal segment: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for lineNo := 1; ; lineNo++ {
		line, err := r.ReadBytes('\n')
		torn := last && errors.Is(err, io.EOF) && len(line) > 0
		if len(bytes.TrimSpace(line)) > 0 {
			switch {
			case lineNo == 1 && isSegMarker(line):
				// Compacted-segment control line; not a record.
			default:
				var rec service.WALRecord
				if uerr := json.Unmarshal(line, &rec); uerr != nil {
					if torn {
						// The unterminated final line is the crash's torn
						// append. Everything before it stands.
						return nil
					}
					return fmt.Errorf("diskstore: wal line %d corrupt: %w", lineNo, uerr)
				}
				if ferr := fn(rec); ferr != nil {
					return ferr
				}
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("diskstore: read wal: %w", err)
		}
	}
}

// CompactWAL rewrites the WAL to recs — the live image Engine.Recover or
// Engine.CompactLog computes. The image lands in a FRESH marker-led segment
// (tmp + fsync + rename, so a crash leaves either the old segments or the
// complete new one), the append handle moves onto it, and every older
// segment is unlinked. A crash between the rename and the unlinks is safe:
// Open and ReplayWAL treat the newest marker-led segment as the replay base
// and discard everything older.
func (s *Store) CompactWAL(recs []*service.WALRecord) error {
	var buf bytes.Buffer
	buf.Write(segMarkerLine)
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("diskstore: marshal wal record: %w", err)
		}
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	next := s.walSeq + 1
	if err := atomicWrite(s.segPath(next), buf.Bytes()); err != nil {
		return err
	}
	if s.wal != nil {
		s.wal.Close() //nolint:errcheck // superseded handle
	}
	wal, err := os.OpenFile(s.segPath(next), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.wal = nil
		return fmt.Errorf("diskstore: reopen wal: %w", err)
	}
	s.wal = wal
	s.walSeq = next
	s.segBytes = int64(buf.Len())
	s.segBorn = time.Now()
	if segs, err := s.listSegments(); err == nil {
		for _, seq := range segs {
			if seq < next {
				os.Remove(s.segPath(seq)) //nolint:errcheck // Open re-sweeps stale segments
			}
		}
	}
	s.metrics.walBytes.Store(int64(buf.Len()))
	s.metrics.walCompactions.Inc()
	return nil
}
