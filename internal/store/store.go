// Package store implements the campaign result store: a content-addressed
// on-disk cache of phase-1 exploration results. It is what makes re-running
// a campaign cheap — the byte-identical determinism of explorations (any
// worker count, any distributed layout) means a cached result is
// indistinguishable from a fresh run, so a matrix re-run only explores
// cells whose inputs changed.
//
// One kind of entry lives in a store directory: results/<hash>, one
// harness.Result in the standard results-file format, keyed by
// Key.Hash() — a SHA-256 over (agent, test, engine config, code version).
// Changing any component (a different MaxPaths, models on/off, a new
// binary) misses the cache by construction. A sidecar <hash>.key file
// records the human-readable key. Grouping is not cached: regrouping a
// result in memory is faster than reading a stored grouping back, so a
// groups/ directory left by older builds is ignored.
//
// Writes are atomic (temp file + rename), so concurrent campaign workers
// and crashed runs can never leave a torn entry; readers verify the magic
// line through the results-file parser.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"

	"github.com/soft-testing/soft/internal/harness"
	"github.com/soft-testing/soft/internal/obs"
)

// Store metrics, aggregated across every open Store in the process.
// Observation only — cache decisions never read them.
var (
	mResultHits   = obs.NewCounter("soft_store_result_hits_total")
	mResultMisses = obs.NewCounter("soft_store_result_misses_total")
	mBytesRead    = obs.NewCounter("soft_store_bytes_read_total")
	mBytesWritten = obs.NewCounter("soft_store_bytes_written_total")
)

// Config is the engine-configuration component of a result key: every
// option that can change exploration output (or how much of it exists).
type Config struct {
	MaxPaths     int
	MaxDepth     int
	Models       bool
	CanonicalCut bool
}

// Key identifies one cached exploration result.
type Key struct {
	Agent string
	Test  string
	// CodeVersion pins the code that produced the result: a cached result
	// is only valid while agent and engine code are unchanged. Use
	// DefaultCodeVersion for the running binary, or inject an explicit
	// version (build tag, image digest) in deployments.
	CodeVersion string
	// Scenario is the definition hash of a scenario-backed test (empty
	// for the built-in Table 1 suite, whose definitions the code version
	// already pins). Scenario definitions can change without the binary
	// changing, so the hash rides in the key: an edited scenario misses
	// the store by construction.
	Scenario string
	Config   Config
}

// String renders the key canonically — the exact bytes that are hashed.
// "clausesharing=false" is a literal: the option it recorded is gone, and
// keeping its rendering keeps every existing store warm.
func (k Key) String() string {
	s := fmt.Sprintf("agent=%q test=%q code=%q maxpaths=%d maxdepth=%d models=%t clausesharing=false canonicalcut=%t",
		k.Agent, k.Test, k.CodeVersion,
		k.Config.MaxPaths, k.Config.MaxDepth,
		k.Config.Models, k.Config.CanonicalCut)
	// Appended (not interleaved) so keys for the built-in suite render
	// exactly as they always did and stay warm across this change.
	if k.Scenario != "" {
		s += fmt.Sprintf(" scenario=%q", k.Scenario)
	}
	return s
}

// Hash is the key's content address.
func (k Key) Hash() string {
	sum := sha256.Sum256([]byte(k.String()))
	return hex.EncodeToString(sum[:])
}

// DefaultCodeVersion derives a code-version string for the running binary
// from, in order: the VCS revision in its build info; a SHA-256 of the
// executable file itself ("exe-" + the first 16 hex digits) when there is
// no VCS stamp, so two different unstamped binaries — go test binaries, go
// run artifacts, vendored builds — can never share cache entries; the main
// module version; and only when the executable cannot even be read,
// "unversioned". A revision built from a modified tree gets "+dirty-" and
// the same 16 hash digits, because the revision alone does not say which
// edits were built (a bare "+dirty" only when the executable cannot be
// read). The value is computed once per process.
func DefaultCodeVersion() string {
	codeVersionOnce.Do(func() {
		bi, _ := debug.ReadBuildInfo()
		codeVersion = codeVersionFrom(bi, executableHash)
	})
	return codeVersion
}

var (
	codeVersionOnce sync.Once
	codeVersion     string
)

// codeVersionFrom implements DefaultCodeVersion's fallback chain over
// injectable inputs so every tier is unit-testable.
func codeVersionFrom(bi *debug.BuildInfo, exeHash func() string) string {
	if bi != nil {
		var rev string
		var modified bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if rev != "" && modified {
			if h := exeHash(); h != "" {
				return rev + "+dirty-" + h[:16]
			}
			return rev + "+dirty"
		}
		if rev != "" {
			return rev
		}
	}
	if h := exeHash(); h != "" {
		return "exe-" + h[:16]
	}
	if bi != nil {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
	}
	return "unversioned"
}

// executableHash returns the hex SHA-256 of the running executable's file
// contents, or "" when it cannot be determined.
func executableHash() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ResultHash is the content address of a result: a SHA-256 over its tree
// rendering (WriteTree) with the wall-clock Elapsed field zeroed,
// so two runs of the same exploration hash identically, however their
// nodes are shared and whichever format their file was read from. It is
// the result= field of the canonical campaign report.
func ResultHash(r *harness.Result) (string, error) {
	clone := *r
	clone.Elapsed = 0
	h := sha256.New()
	if err := clone.WriteTree(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Store is one on-disk result store. Safe for concurrent use by any number
// of processes sharing the directory.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a store directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) resultPath(hash string) string {
	return filepath.Join(s.dir, "results", hash)
}

// GetResult looks a key up, returning (nil, false, nil) on a miss. A
// stored entry that fails to parse is treated as a miss (and the error
// returned), never as a result. The result's run counters read zero: the
// file does not carry them.
func (s *Store) GetResult(k Key) (*harness.Result, bool, error) {
	sp := obs.StartSpan("store:get-result")
	defer sp.End()
	f, err := os.Open(s.resultPath(k.Hash()))
	if os.IsNotExist(err) {
		mResultMisses.Inc()
		return nil, false, nil
	}
	if err != nil {
		mResultMisses.Inc()
		return nil, false, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	res, err := harness.ReadResults(f)
	if err != nil {
		mResultMisses.Inc()
		return nil, false, fmt.Errorf("store: corrupt entry %s: %w", k.Hash(), err)
	}
	mResultHits.Inc()
	if fi, err := f.Stat(); err == nil {
		mBytesRead.Add(fi.Size())
	}
	return res, true, nil
}

// PutResult stores a result under k, atomically. A concurrent Put of the
// same key is harmless — determinism makes the contents identical.
func (s *Store) PutResult(k Key, r *harness.Result) error {
	sp := obs.StartSpan("store:put-result")
	defer sp.End()
	hash := k.Hash()
	err := s.writeAtomic(s.resultPath(hash), func(f *os.File) error { return r.Write(f) })
	if err != nil {
		return err
	}
	// The sidecar is debugging metadata; its loss is harmless.
	os.WriteFile(s.resultPath(hash)+".key", []byte(k.String()+"\n"), 0o644)
	return nil
}

// writeAtomic writes via a temp file in the same directory and renames
// into place, so a reader never observes a torn entry.
func (s *Store) writeAtomic(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if fi, err := f.Stat(); err == nil {
		mBytesWritten.Add(fi.Size())
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Len counts stored result entries (sidecar key files excluded) — a
// convenience for tests and `soft matrix -v` reporting.
func (s *Store) Len() int {
	entries, err := os.ReadDir(filepath.Join(s.dir, "results"))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && !strings.HasSuffix(e.Name(), ".key") && !strings.HasPrefix(e.Name(), ".") {
			n++
		}
	}
	return n
}
