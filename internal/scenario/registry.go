package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/soft-testing/soft/internal/harness"
)

var (
	regMu    sync.RWMutex
	registry = map[string]*Scenario{}
	regNames []string
)

// Register adds a scenario to the process-wide registry (mirroring
// soft.RegisterAgent). It panics on an empty or duplicate name, on the
// reserved generator prefix, and on a name that would be shadowed by a
// built-in Table 1 test. Typically called from an init function.
func Register(s *Scenario) {
	if s == nil || s.Name == "" {
		panic("scenario: Register with empty name")
	}
	if strings.HasPrefix(s.Name, GenPrefix) {
		panic(fmt.Sprintf("scenario: name %q uses the reserved generator prefix %q", s.Name, GenPrefix))
	}
	if len(s.Steps) == 0 {
		panic(fmt.Sprintf("scenario: %q has no steps", s.Name))
	}
	if _, clash := builtinTest(s.Name); clash {
		panic(fmt.Sprintf("scenario: name %q collides with a Table 1 test", s.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate name %q", s.Name))
	}
	registry[s.Name] = s
	regNames = append(regNames, s.Name)
	sort.Strings(regNames)
}

// builtinTest reports whether name is a built-in Table 1 test. It checks
// the suite directly (not TestByName) so the scenario test source below
// cannot recurse into itself.
func builtinTest(name string) (harness.Test, bool) {
	for _, t := range harness.Tests() {
		if t.Name == name {
			return t, true
		}
	}
	return harness.Test{}, false
}

// ByName resolves a scenario: registered names first, then generated
// "gen:<index>" names (which resolve in any process, registered or not).
func ByName(name string) (*Scenario, bool) {
	if idx, ok := genIndex(name); ok {
		return Generated(idx)
	}
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered scenario names, sorted. Generated
// scenarios are not listed — they are resolved on demand by index.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(regNames))
	copy(out, regNames)
	return out
}

// All returns the registered scenarios in Names() order.
func All() []*Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Scenario, 0, len(regNames))
	for _, n := range regNames {
		out = append(out, registry[n])
	}
	return out
}

func init() {
	// Every layer that resolves tests by name (scheduler, fleet workers)
	// now resolves scenarios too.
	harness.RegisterTestSource(func(name string) (harness.Test, bool) {
		s, ok := ByName(name)
		if !ok {
			return harness.Test{}, false
		}
		return s.Test(), true
	})
	for _, s := range seeds() {
		Register(s)
	}
}
