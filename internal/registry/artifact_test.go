package registry

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
)

func openStore(t *testing.T, dir string) *artifact.Store {
	t.Helper()
	s, err := artifact.OpenStore(dir, nil)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return s
}

// TestArtifactWarmLookup is the persistence contract end to end: a second
// registry over the same store directory serves the pair with zero
// compiles, and the pair it serves actually casts.
func TestArtifactWarmLookup(t *testing.T) {
	dir := t.TempDir()

	r1 := New(Config{Store: openStore(t, dir)})
	src, dst := figPair(t, r1)
	p1, err := r1.Pair(src, dst)
	if err != nil {
		t.Fatalf("cold pair: %v", err)
	}
	if got := r1.Stats().Compiles; got != 1 {
		t.Fatalf("cold registry compiles = %d, want 1", got)
	}
	if st := r1.Store().Stats(); st.Writes != 1 || st.Misses != 1 {
		t.Fatalf("cold store stats %+v, want one miss and one write-through", st)
	}

	// "Restart": fresh registry, fresh store handle, same directory.
	r2 := New(Config{Store: openStore(t, dir)})
	src, dst = figPair(t, r2)
	p2, lk, err := r2.PairCtx(context.Background(), src, dst)
	if err != nil {
		t.Fatalf("warm pair: %v", err)
	}
	if lk.Outcome != LookupArtifact {
		t.Fatalf("warm lookup outcome %q, want %q", lk.Outcome, LookupArtifact)
	}
	if got := r2.Stats().Compiles; got != 0 {
		t.Fatalf("warm registry compiles = %d, want 0", got)
	}
	if st := r2.Store().Stats(); st.Hits != 1 {
		t.Fatalf("warm store stats %+v, want one hit", st)
	}
	if p2.Cost != p1.Cost {
		t.Fatalf("warm cost %d != cold cost %d (both are the pairCost estimate)", p2.Cost, p1.Cost)
	}
	if _, err := p2.Stream.Validate(strings.NewReader(poXML(true))); err != nil {
		t.Fatalf("warm pair rejected valid doc: %v", err)
	}
	if _, err := p2.Stream.Validate(strings.NewReader(poXML(false))); err == nil {
		t.Fatal("warm pair accepted invalid doc")
	}
	if p2.CompileTime <= 0 {
		t.Fatal("warm pair has no load time recorded")
	}
}

// TestArtifactCorruptFallsBack truncates the stored blob: the next lookup
// must quarantine it, count the corruption, fall back to a fresh compile,
// and write a good blob back — never panic.
func TestArtifactCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	r1 := New(Config{Store: openStore(t, dir)})
	src, dst := figPair(t, r1)
	if _, err := r1.Pair(src, dst); err != nil {
		t.Fatalf("cold pair: %v", err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.xca"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one blob, got %v (%v)", files, err)
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(files[0], fi.Size()/2); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	r2 := New(Config{Store: openStore(t, dir)})
	src, dst = figPair(t, r2)
	p, err := r2.Pair(src, dst)
	if err != nil {
		t.Fatalf("pair after corruption: %v", err)
	}
	if _, err := p.Stream.Validate(strings.NewReader(poXML(true))); err != nil {
		t.Fatalf("fallback pair rejected valid doc: %v", err)
	}
	if got := r2.Stats().Compiles; got != 1 {
		t.Fatalf("compiles after corrupt fallback = %d, want 1", got)
	}
	st := r2.Store().Stats()
	if st.Corrupt != 1 {
		t.Fatalf("store stats %+v, want one corruption", st)
	}
	if st.Writes != 1 {
		t.Fatalf("store stats %+v, want the fresh compile written back", st)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(q) != 1 {
		t.Fatalf("quarantine files %v, want exactly one", q)
	}
}

// TestInstallArtifact moves a blob between two registries the way the
// cluster router does: export from the owner via ArtifactBlob, install on
// the non-owner, which then serves the pair without compiling.
func TestInstallArtifact(t *testing.T) {
	owner := New(Config{Store: openStore(t, t.TempDir())})
	src, dst := figPair(t, owner)
	p, err := owner.Pair(src, dst)
	if err != nil {
		t.Fatalf("owner pair: %v", err)
	}
	key := artifact.Key(p.Src.Hash, p.Dst.Hash)
	blob, err := owner.ArtifactBlob(key)
	if err != nil {
		t.Fatalf("owner blob: %v", err)
	}
	if want := pairCost(p.Src, p.Dst, p.Report); p.Cost != want {
		t.Fatalf("compiled pair cost is %d, want the pairCost estimate %d", p.Cost, want)
	}

	// The non-owner has the schemas registered but no pair and no store.
	other := New(Config{})
	src, dst = figPair(t, other)
	if _, ok := other.CachedPair(src, dst); ok {
		t.Fatal("non-owner claims a cached pair before install")
	}
	// Garbage must be rejected without caching anything.
	if _, err := other.InstallArtifact(context.Background(), src, dst, []byte("junk"), 0); err == nil {
		t.Fatal("install accepted garbage")
	}
	if _, ok := other.CachedPair(src, dst); ok {
		t.Fatal("failed install left a cached pair behind")
	}
	ip, err := other.InstallArtifact(context.Background(), src, dst, blob, 0)
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	if got := other.Stats().Compiles; got != 0 {
		t.Fatalf("install counted %d compiles, want 0", got)
	}
	if _, err := ip.Stream.Validate(strings.NewReader(poXML(true))); err != nil {
		t.Fatalf("installed pair rejected valid doc: %v", err)
	}
	if cp, ok := other.CachedPair(src, dst); !ok || cp != ip {
		t.Fatal("installed pair not served from cache")
	}
	if ip.Cost != p.Cost {
		t.Fatalf("installed pair cost %d != compiled pair cost %d", ip.Cost, p.Cost)
	}
	// A storeless registry can still export the pair for its own peers.
	if blob2, err := other.ArtifactBlob(key); err != nil {
		t.Fatalf("re-export: %v", err)
	} else if len(blob2) != len(blob) {
		t.Fatalf("re-export diverged: %d vs %d bytes", len(blob2), len(blob))
	}

	// A blob for different schema content must be rejected too.
	mis := New(Config{})
	if _, err := mis.Register("v1", `<?xml version="1.0"?><xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="a" type="xs:string"/></xs:schema>`, FormatAuto, ""); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := mis.Register("v2", `<?xml version="1.0"?><xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="b" type="xs:string"/></xs:schema>`, FormatAuto, ""); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := mis.InstallArtifact(context.Background(), "v1", "v2", blob, 0); err == nil {
		t.Fatal("install accepted a blob addressing different schema content")
	}
}

func TestArtifactBlobUnknownKey(t *testing.T) {
	r := New(Config{})
	if _, err := r.ArtifactBlob(artifact.Key("x", "y")); !errors.Is(err, artifact.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}
