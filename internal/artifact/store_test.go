package artifact

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func TestStoreMissHitCorrupt(t *testing.T) {
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	blob := encodeFigPair(t)
	info, err := Inspect(blob)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	key := info.Key

	// Miss.
	if _, err := store.LoadPair(key, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty store: want ErrNotFound, got %v", err)
	}
	if st := store.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after miss: %+v", st)
	}

	// Write-through + hit.
	if err := store.Put(key, blob); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := store.LoadPair(key, nil); err != nil {
		t.Fatalf("load after put: %v", err)
	}
	if st := store.Stats(); st.Hits != 1 || st.Writes != 1 {
		t.Fatalf("after hit: %+v", st)
	}

	// Corrupt the stored blob (truncate it): the next load must fail
	// cleanly, quarantine the file, and count the corruption.
	path := filepath.Join(store.Dir(), key+".xca")
	if err := os.Truncate(path, int64(len(blob)/2)); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := store.LoadPair(key, nil); err == nil {
		t.Fatal("truncated blob decoded successfully")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated blob: want ErrCorrupt, got %v", err)
	}
	if st := store.Stats(); st.Corrupt != 1 {
		t.Fatalf("after corruption: %+v", st)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob still live under its key: %v", err)
	}
	// And the key now misses cleanly — a fresh compile can write through.
	if _, err := store.LoadPair(key, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after quarantine: want ErrNotFound, got %v", err)
	}
	if err := store.Put(key, blob); err != nil {
		t.Fatalf("re-put after quarantine: %v", err)
	}
	if _, err := store.LoadPair(key, nil); err != nil {
		t.Fatalf("load after re-put: %v", err)
	}
}

func TestStoreRejectsHostileKeys(t *testing.T) {
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, key := range []string{"", "..", "../../etc/passwd", "ABCDEF", "short", string(make([]byte, 64))} {
		if err := store.Put(key, []byte("x")); err == nil {
			t.Fatalf("Put accepted hostile key %q", key)
		}
		if _, err := store.Get(key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%q): want ErrNotFound, got %v", key, err)
		}
	}
}

func TestKeyShape(t *testing.T) {
	k := Key("aaa", "bbb")
	if !validKey(k) {
		t.Fatalf("Key produced an invalid key %q", k)
	}
	if k == Key("bbb", "aaa") {
		t.Fatal("key is direction-insensitive; (src,dst) and (dst,src) must differ")
	}
}

func TestStorePartialWriteRecovery(t *testing.T) {
	defer faultinject.Disable()
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	blob := encodeFigPair(t)
	info, err := Inspect(blob)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	key := info.Key

	// A write that tears mid-blob must not publish anything: the next
	// lookup is a clean miss — no live file, no quarantine, no corrupt
	// counter. The torn temp file is cleaned up by Put itself.
	faultinject.Enable(faultinject.Config{DiskErrAfter: int64(len(blob) / 2)})
	if err := store.Put(key, blob); err == nil {
		t.Fatal("partial write reported success")
	}
	if _, err := os.Stat(filepath.Join(store.Dir(), key+".xca")); !os.IsNotExist(err) {
		t.Fatalf("torn blob published under live key: %v", err)
	}
	if _, err := store.LoadPair(key, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after torn write: want clean ErrNotFound, got %v", err)
	}
	if st := store.Stats(); st.Corrupt != 0 || st.Writes != 0 {
		t.Fatalf("torn write moved counters: %+v", st)
	}
	ents, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".corrupt" {
			t.Fatalf("torn write left a quarantine file %s", e.Name())
		}
	}
	if store.Degraded() {
		t.Fatal("a single torn write must not degrade the store")
	}

	// Heal the disk: the same Put goes through and the blob decodes.
	faultinject.Disable()
	if err := store.Put(key, blob); err != nil {
		t.Fatalf("put after heal: %v", err)
	}
	if _, err := store.LoadPair(key, nil); err != nil {
		t.Fatalf("load after heal: %v", err)
	}
}

func TestStoreDegradesOnENOSPC(t *testing.T) {
	defer faultinject.Disable()
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	blob := encodeFigPair(t)
	info, _ := Inspect(blob)
	key := info.Key

	faultinject.Enable(faultinject.Config{DiskFull: true})
	if err := store.Put(key, blob); errors.Is(err, ErrDegraded) || err == nil {
		t.Fatalf("first ENOSPC Put: want the underlying error, got %v", err)
	}
	if !store.Degraded() {
		t.Fatal("store not degraded after ENOSPC")
	}
	// While degraded, Puts short-circuit with ErrDegraded — no disk I/O.
	if err := store.Put(key, blob); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Put: want ErrDegraded, got %v", err)
	}
	// Reads still work while degraded.
	if _, err := store.LoadPair(key, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("degraded read: want ErrNotFound passthrough, got %v", err)
	}

	// Heal the disk and expire the retry window: the next Put probes the
	// disk, succeeds, and clears the degradation.
	faultinject.Disable()
	store.degradedAt.Store(time.Now().Add(-degradedRetryAfter - time.Second).UnixNano())
	if err := store.Put(key, blob); err != nil {
		t.Fatalf("probe Put after heal: %v", err)
	}
	if store.Degraded() {
		t.Fatal("store still degraded after successful probe")
	}
	if _, err := store.LoadPair(key, nil); err != nil {
		t.Fatalf("load after recovery: %v", err)
	}
}

func TestStoreDegradedProbeFailureStaysDegraded(t *testing.T) {
	defer faultinject.Disable()
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	blob := encodeFigPair(t)
	info, _ := Inspect(blob)
	key := info.Key

	faultinject.Enable(faultinject.Config{DiskFull: true})
	store.Put(key, blob) // trips degraded
	// Expire the window with the disk still full: the probe fails and the
	// store stays degraded with a refreshed window.
	store.degradedAt.Store(time.Now().Add(-degradedRetryAfter - time.Second).UnixNano())
	if err := store.Put(key, blob); err == nil || errors.Is(err, ErrDegraded) {
		t.Fatalf("probe against a full disk: want the underlying error, got %v", err)
	}
	if !store.Degraded() {
		t.Fatal("store recovered though the probe failed")
	}
	if err := store.Put(key, blob); !errors.Is(err, ErrDegraded) {
		t.Fatalf("post-probe Put: want ErrDegraded, got %v", err)
	}
}
