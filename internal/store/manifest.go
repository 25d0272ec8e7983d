package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The MANIFEST file pins what a store directory was populated with: the
// store layout version and the code version of the first writer. Every
// entry's key already embeds its own code version, so mixed entries are
// never *wrong* — but because unstamped binaries used to share the
// "unversioned" key, and because a silently mismatched default turns every
// warm run into a full re-exploration, reuse across code versions is
// refused loudly (ErrVersionSkew) unless the caller migrates the manifest
// on purpose.
const (
	manifestName = "MANIFEST"
	// layoutVersion is bumped on any incompatible change to the store's
	// on-disk layout or to the entry format it holds (results files, key
	// construction). Dropping the groups/ entries left the layout as it
	// was: older stores stay warm and their groups/ directory is ignored.
	layoutVersion = "soft-store v1"
)

// ErrVersionSkew reports a store whose manifest disagrees with the
// caller's code version (or layout). Callers surface it as a usage error:
// the fix is a matching -code-version, a fresh store directory, or an
// explicit migration.
var ErrVersionSkew = errors.New("store: version skew")

// IsVersionSkew reports whether err wraps ErrVersionSkew.
func IsVersionSkew(err error) bool { return errors.Is(err, ErrVersionSkew) }

// Manifest is the parsed MANIFEST content.
type Manifest struct {
	Layout      string
	CodeVersion string
}

func (s *Store) manifestPath() string {
	return filepath.Join(s.dir, manifestName)
}

// Manifest reads the store's manifest; ok=false when none exists yet.
func (s *Store) Manifest() (Manifest, bool, error) {
	data, err := os.ReadFile(s.manifestPath())
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("store: %w", err)
	}
	var m Manifest
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "layout "):
			m.Layout = strings.TrimPrefix(line, "layout ")
		case strings.HasPrefix(line, "code "):
			m.CodeVersion = strings.TrimPrefix(line, "code ")
		}
	}
	if m.Layout == "" {
		return Manifest{}, false, fmt.Errorf("store: corrupt manifest %s", s.manifestPath())
	}
	return m, true, nil
}

// EnsureCodeVersion stamps a fresh store with (layout, codeVersion), and on
// an already-stamped store verifies both match — a mismatch returns an
// error wrapping ErrVersionSkew that names the two versions. It is the
// guard `soft matrix -store` runs before touching a store,
// so a stale store can never silently mix results of different code.
func (s *Store) EnsureCodeVersion(codeVersion string) error {
	m, ok, err := s.Manifest()
	if err != nil {
		return err
	}
	if !ok {
		return s.SetCodeVersion(codeVersion)
	}
	if m.Layout != layoutVersion {
		return fmt.Errorf("%w: store %s has layout %q but this binary expects %q; use a fresh store directory",
			ErrVersionSkew, s.dir, m.Layout, layoutVersion)
	}
	if m.CodeVersion != codeVersion {
		return fmt.Errorf("%w: store %s was populated by code version %q but this run uses %q; pass -code-version %q to reuse it, -store-migrate to re-stamp it (old entries stay keyed by their own version), or a fresh -store directory",
			ErrVersionSkew, s.dir, m.CodeVersion, codeVersion, m.CodeVersion)
	}
	return nil
}

// SetCodeVersion (re)stamps the manifest with the current layout and the
// given code version, atomically — the explicit migration path after an
// intended code change.
func (s *Store) SetCodeVersion(codeVersion string) error {
	if strings.ContainsAny(codeVersion, "\n\r") {
		return fmt.Errorf("store: code version %q contains a line break", codeVersion)
	}
	content := fmt.Sprintf("layout %s\ncode %s\n", layoutVersion, codeVersion)
	return s.writeAtomic(s.manifestPath(), func(f *os.File) error {
		_, err := f.WriteString(content)
		return err
	})
}
