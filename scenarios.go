package soft

import (
	"github.com/soft-testing/soft/internal/scenario"
)

// Scenario is a named deterministic sequence of steps — a stateful
// multi-message test case (install → modify/delete → probe) whose steps
// thread one agent instance's flow-table state. Scenarios compile to the
// same Test shape as the Table 1 suite and run through every layer of
// the pipeline: Explore, RunMatrix cells, the result store, and worker
// fleets.
type Scenario = scenario.Scenario

// ScenarioStep is one step of a Scenario. Its builder receives a NewSym
// function already namespaced by step index, so steps compose without
// symbolic-variable collisions and exploration stays canonical.
type ScenarioStep = scenario.Step

// RegisterScenario adds a scenario to the process-wide registry
// (mirroring RegisterAgent). It panics on a duplicate or empty name, on
// the reserved "gen:" prefix, and on a name that collides with a Table 1
// test. Registered scenarios resolve through TestByName and can be used
// anywhere a test name is accepted.
func RegisterScenario(s *Scenario) { scenario.Register(s) }

// Scenarios returns the registered scenarios, sorted by name. The seed
// library ships registered; generated scenarios ("gen:<index>") are not
// listed — they resolve on demand by index.
func Scenarios() []*Scenario { return scenario.All() }

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName resolves a registered scenario name or a generated
// "gen:<index>" name.
func ScenarioByName(name string) (*Scenario, bool) { return scenario.ByName(name) }

// GeneratedScenario returns the nth scenario of the deterministic
// bounded step-sequence enumeration (0 <= n < GeneratedScenarioCount).
// The index is the scenario's entire identity: any process resolves
// "gen:<n>" to the same definition, with no registration coordination.
func GeneratedScenario(n int) (*Scenario, bool) { return scenario.Generated(n) }

// GeneratedScenarioCount is the size of the generator's enumeration.
func GeneratedScenarioCount() int { return scenario.GeneratedCount() }
