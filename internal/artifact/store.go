package artifact

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/schema"
)

// Store is an on-disk blob store for pair artifacts, keyed by Key. Writes
// are atomic and durable (temp file + fsync + rename + directory fsync in
// the same directory), so a crashed or concurrent writer can never leave a
// half-written blob under a live key — even across a power cut between the
// write and the rename; blobs that fail to decode are quarantined (renamed
// aside) so one corrupt file cannot re-trip every restart.
//
// When the disk itself fails structurally (ENOSPC, read-only filesystem),
// the store degrades to memory-only mode: Put returns ErrDegraded without
// touching disk, reads keep working, and after degradedRetryAfter the next
// Put probes the disk again, clearing the degradation on success. Casts
// must never fail because the write-through cache is sick. A Store is safe
// for concurrent use.
type Store struct {
	dir    string
	logger *slog.Logger

	hits, misses, writes, corrupt atomic.Int64
	// degradedAt is the unix-nano time the store entered memory-only
	// mode, 0 while healthy.
	degradedAt atomic.Int64
}

// ErrDegraded is returned by Put while the store is in memory-only mode;
// callers should treat it as "skip the write-through" rather than a fault
// worth logging per request.
var ErrDegraded = errors.New("artifact: store degraded to memory-only mode")

// degradedRetryAfter is how long the store stays memory-only before a Put
// probes the disk again.
const degradedRetryAfter = 30 * time.Second

// StoreStats is a counter snapshot for /metrics.
type StoreStats struct {
	// Hits counts blobs found and successfully decoded.
	Hits int64
	// Misses counts lookups of keys with no stored blob.
	Misses int64
	// Writes counts blobs written through after a compile.
	Writes int64
	// Corrupt counts blobs found but rejected (corrupt or stale) and
	// quarantined.
	Corrupt int64
}

// OpenStore opens (creating if needed) an artifact store rooted at dir.
// logger may be nil.
func OpenStore(dir string, logger *slog.Logger) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open store: %w", err)
	}
	return &Store{dir: dir, logger: logger}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Writes:  s.writes.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// validKey accepts exactly the lowercase-hex shape Key produces. Keys are
// used as file names and arrive over the peer-fetch route, so anything else
// is rejected before it can touch the filesystem.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".xca") }

// Get returns the raw blob stored under key, or ErrNotFound. No counters
// move: Get serves the peer-fetch route, not the cache lookup path.
func (s *Store) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("%w: invalid key %q", ErrNotFound, key)
	}
	b, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("artifact: read %s: %w", key, err)
	}
	return b, nil
}

// LoadPair loads and fully decodes the artifact under key, drawing content
// models from models (nil compiles them locally; see DecodeModels). A
// missing blob counts a miss and returns ErrNotFound; a blob that fails to
// decode counts a corruption, is quarantined, and returns the decode error;
// a good blob counts a hit.
func (s *Store) LoadPair(key string, models *schema.ModelTable) (*Decoded, error) {
	blob, err := s.Get(key)
	if err != nil {
		s.misses.Add(1)
		return nil, err
	}
	dec, err := DecodeModels(blob, models)
	if err != nil {
		s.corrupt.Add(1)
		s.quarantine(key, err)
		return nil, err
	}
	s.hits.Add(1)
	return dec, nil
}

// quarantine moves a rejected blob aside (key.xca → key.xca.corrupt) so the
// next lookup misses cleanly and the bytes stay available for forensics.
func (s *Store) quarantine(key string, cause error) {
	p := s.path(key)
	if err := os.Rename(p, p+".corrupt"); err != nil && s.logger != nil {
		s.logger.Warn("artifact: quarantine failed", "key", key, "error", err)
		return
	}
	if s.logger != nil {
		s.logger.Warn("artifact: blob quarantined", "key", key, "cause", cause)
	}
}

// Degraded reports whether the store is currently in memory-only mode.
// Exposed as the castd_artifact_store_degraded gauge.
func (s *Store) Degraded() bool { return s.degradedAt.Load() != 0 }

// degrade trips the store into memory-only mode (idempotent).
func (s *Store) degrade(cause error) {
	if s.degradedAt.CompareAndSwap(0, time.Now().UnixNano()) && s.logger != nil {
		s.logger.Error("artifact: store degraded to memory-only mode", "cause", cause)
	}
}

// structuralDiskError reports whether err means the disk itself is sick
// (full or read-only) rather than one write having bad luck.
func structuralDiskError(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EROFS) ||
		errors.Is(err, syscall.EDQUOT) || errors.Is(err, os.ErrPermission)
}

// putErr funnels every Put failure: structural disk errors trip degraded
// mode, everything else passes through untouched.
func (s *Store) putErr(key string, err error) error {
	if structuralDiskError(err) {
		s.degrade(err)
	}
	return fmt.Errorf("artifact: write %s: %w", key, err)
}

// Put atomically and durably writes blob under key: the bytes land in a
// temp file in the store directory, are fsynced, renamed into place, and
// the directory entry is fsynced — so readers only ever see complete
// blobs, and a crash right after Put returns cannot lose or tear the
// publish. Overwrites any previous blob under the key.
//
// While the store is degraded (disk full / read-only), Put returns
// ErrDegraded immediately; every degradedRetryAfter one Put is allowed
// through to probe the disk, and success restores normal operation.
func (s *Store) Put(key string, blob []byte) error {
	if !validKey(key) {
		return fmt.Errorf("artifact: invalid key %q", key)
	}
	if at := s.degradedAt.Load(); at != 0 {
		if time.Since(time.Unix(0, at)) < degradedRetryAfter {
			return ErrDegraded
		}
		// Probe window: claim it by bumping the timestamp so concurrent
		// Puts don't all pile onto a sick disk at once.
		if !s.degradedAt.CompareAndSwap(at, time.Now().UnixNano()) {
			return ErrDegraded
		}
	}
	tmp, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return s.putErr(key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := faultinject.DiskWriter(tmp).Write(blob); err != nil {
		tmp.Close()
		return s.putErr(key, err)
	}
	// Sync before rename: otherwise the rename can be durable while the
	// data is not, and a power cut publishes a torn blob under a live key.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return s.putErr(key, err)
	}
	if err := tmp.Close(); err != nil {
		return s.putErr(key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return s.putErr(key, err)
	}
	s.syncDir()
	s.writes.Add(1)
	if s.degradedAt.Swap(0) != 0 && s.logger != nil {
		s.logger.Info("artifact: store recovered from memory-only mode")
	}
	return nil
}

// syncDir fsyncs the store directory so a just-renamed entry survives a
// crash. Failure is logged, not returned: the blob is already readable,
// only its crash-durability is in doubt.
func (s *Store) syncDir() {
	d, err := os.Open(s.dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil && s.logger != nil {
		s.logger.Warn("artifact: directory fsync failed", "dir", s.dir, "error", err)
	}
}
