package store

import (
	"runtime/debug"
	"strings"
	"testing"
)

func buildInfo(settings map[string]string, modVersion string) *debug.BuildInfo {
	bi := &debug.BuildInfo{}
	bi.Main.Version = modVersion
	for k, v := range settings {
		bi.Settings = append(bi.Settings, debug.BuildSetting{Key: k, Value: v})
	}
	return bi
}

// TestCodeVersionFallbackChain pins the tier order: VCS stamp, then
// executable hash, then module version, then "unversioned".
func TestCodeVersionFallbackChain(t *testing.T) {
	hash := func() string { return strings.Repeat("ab", 32) }
	noHash := func() string { return "" }

	cases := []struct {
		name string
		bi   *debug.BuildInfo
		hash func() string
		want string
	}{
		{"vcs wins", buildInfo(map[string]string{"vcs.revision": "deadbeef"}, "v1.2.3"), hash, "deadbeef"},
		{"vcs dirty", buildInfo(map[string]string{"vcs.revision": "deadbeef", "vcs.modified": "true"}, ""), hash, "deadbeef+dirty-abababababababab"},
		{"vcs dirty when unhashable", buildInfo(map[string]string{"vcs.revision": "deadbeef", "vcs.modified": "true"}, ""), noHash, "deadbeef+dirty"},
		{"vcs clean ignores exe hash", buildInfo(map[string]string{"vcs.revision": "deadbeef", "vcs.modified": "false"}, ""), hash, "deadbeef"},
		{"exe hash before module version", buildInfo(nil, "v1.2.3"), hash, "exe-abababababababab"},
		{"exe hash without build info", nil, hash, "exe-abababababababab"},
		{"module version when unhashable", buildInfo(nil, "v1.2.3"), noHash, "v1.2.3"},
		{"devel version skipped", buildInfo(nil, "(devel)"), noHash, "unversioned"},
		{"nothing at all", nil, noHash, "unversioned"},
	}
	for _, tc := range cases {
		if got := codeVersionFrom(tc.bi, tc.hash); got != tc.want {
			t.Errorf("%s: codeVersionFrom = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCodeVersionNeverUnversionedForRealBinaries: the running test binary
// has no VCS stamp, but it has an executable to hash — the historic
// "unversioned" collision (two different unstamped binaries sharing every
// cache key) must be unreachable whenever os.Executable works.
func TestCodeVersionNeverUnversionedForRealBinaries(t *testing.T) {
	if h := executableHash(); h == "" {
		t.Skip("executable not hashable in this environment")
	}
	if v := DefaultCodeVersion(); v == "unversioned" {
		t.Fatalf("DefaultCodeVersion = %q despite a hashable executable", v)
	}
}

// TestUnstampedBinariesCannotCollide is the store-invalidation test for
// the old bug: two binaries that differ only in executable bytes derive
// different code versions, so a result cached by one is a miss for the
// other.
func TestUnstampedBinariesCannotCollide(t *testing.T) {
	binaryA := codeVersionFrom(nil, func() string { return strings.Repeat("aa", 32) })
	binaryB := codeVersionFrom(nil, func() string { return strings.Repeat("bb", 32) })
	if binaryA == binaryB {
		t.Fatalf("distinct executables derived the same code version %q", binaryA)
	}

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := explore(t)
	keyA := baseKey()
	keyA.CodeVersion = binaryA
	if err := s.PutResult(keyA, res); err != nil {
		t.Fatal(err)
	}
	keyB := keyA
	keyB.CodeVersion = binaryB
	if _, ok, err := s.GetResult(keyB); err != nil || ok {
		t.Fatalf("binary B hit binary A's cache entry (ok=%t err=%v)", ok, err)
	}
	if _, ok, err := s.GetResult(keyA); err != nil || !ok {
		t.Fatalf("binary A missed its own entry (ok=%t err=%v)", ok, err)
	}
}

// TestDirtyBuildsCannotCollide: two builds from the same revision with
// different uncommitted edits differ in executable bytes, so they derive
// different code versions and never serve each other's cached cells.
func TestDirtyBuildsCannotCollide(t *testing.T) {
	dirty := buildInfo(map[string]string{"vcs.revision": "deadbeef", "vcs.modified": "true"}, "")
	buildA := codeVersionFrom(dirty, func() string { return strings.Repeat("aa", 32) })
	buildB := codeVersionFrom(dirty, func() string { return strings.Repeat("bb", 32) })
	if buildA == buildB {
		t.Fatalf("distinct dirty builds derived the same code version %q", buildA)
	}
	for _, v := range []string{buildA, buildB} {
		if !strings.HasPrefix(v, "deadbeef+dirty-") {
			t.Errorf("dirty code version %q does not keep the revision and marker", v)
		}
	}
}

// TestExecutableHashStable: hashing the running binary is deterministic.
func TestExecutableHashStable(t *testing.T) {
	h1, h2 := executableHash(), executableHash()
	if h1 == "" {
		t.Skip("executable not hashable in this environment")
	}
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("executableHash unstable or malformed: %q vs %q", h1, h2)
	}
}

// TestManifestVersionSkew: a store stamped by one code version refuses a
// different one with ErrVersionSkew, accepts the same one, and can be
// migrated explicitly.
func TestManifestVersionSkew(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Manifest(); err != nil || ok {
		t.Fatalf("fresh store already has a manifest (ok=%t err=%v)", ok, err)
	}
	if err := s.EnsureCodeVersion("v1"); err != nil {
		t.Fatalf("stamping a fresh store: %v", err)
	}
	if err := s.EnsureCodeVersion("v1"); err != nil {
		t.Fatalf("re-opening with the same version: %v", err)
	}
	err = s.EnsureCodeVersion("v2")
	if err == nil {
		t.Fatal("version skew accepted")
	}
	if !IsVersionSkew(err) {
		t.Fatalf("skew error does not wrap ErrVersionSkew: %v", err)
	}
	for _, want := range []string{`"v1"`, `"v2"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("skew message %q does not name %s", err, want)
		}
	}
	if err := s.SetCodeVersion("v2"); err != nil {
		t.Fatalf("migrating: %v", err)
	}
	if err := s.EnsureCodeVersion("v2"); err != nil {
		t.Fatalf("after migration: %v", err)
	}
	m, ok, err := s.Manifest()
	if err != nil || !ok || m.CodeVersion != "v2" {
		t.Fatalf("manifest after migration: %+v ok=%t err=%v", m, ok, err)
	}
}
