package scenario

import (
	"strconv"
	"strings"

	"github.com/soft-testing/soft/internal/openflow"
)

// GenPrefix names generated scenarios: "gen:<index>". The index into the
// bounded template enumeration below is the scenario's entire identity —
// no clock, no randomness — so any process (a fleet worker, a warm
// store's reader) resolves the same name to the same definition.
const GenPrefix = "gen:"

// genOp is one element of the generator's operation alphabet. Each op is
// a Flow Mod template with a small, fixed symbolic surface; the generator
// enumerates bounded sequences of ops, always followed by the TCP probe
// that makes the resulting table state observable.
type genOp struct {
	key  string
	desc string
	spec func() fmSpec
}

func genOps() []genOp {
	return []genOp{
		{"add", "concrete TCP ADD -> output:2", func() fmSpec {
			o := tcpMatchFM(openflow.FCAdd)
			o.actions = []actSpec{{output: 2}}
			return o
		}},
		{"addp", "wildcarded ADD with symbolic priority -> output:3", func() fmSpec {
			o := wildFM(openflow.FCAdd)
			o.symPriority = "priority"
			o.actions = []actSpec{{output: 3}}
			return o
		}},
		{"mod", "wildcarded MODIFY with symbolic SET_NW_TOS", func() fmSpec {
			o := wildFM(openflow.FCModify)
			o.actions = []actSpec{{symTos: "tos"}, {output: 2}}
			return o
		}},
		{"mods", "TCP MODIFY_STRICT with symbolic priority -> output:3", func() fmSpec {
			o := tcpMatchFM(openflow.FCModifyStrict)
			o.symPriority = "priority"
			o.actions = []actSpec{{output: 3}}
			return o
		}},
		{"del", "wildcarded DELETE with symbolic out_port filter", func() fmSpec {
			o := wildFM(openflow.FCDelete)
			o.symOutPort = "out_port"
			return o
		}},
		{"dels", "TCP DELETE_STRICT with symbolic priority", func() fmSpec {
			o := tcpMatchFM(openflow.FCDeleteStrict)
			o.symPriority = "priority"
			return o
		}},
	}
}

// GeneratedCount is the size of the enumeration: every length-2 op
// sequence first, then every length-3 sequence, in lexicographic op-index
// order. The ordering is the generator's public contract — index i names
// the same scenario forever (extending the alphabet or lengths appends,
// never reorders, or it must bump the scenario definition hashes).
func GeneratedCount() int {
	k := len(genOps())
	return k*k + k*k*k
}

// Generated returns the nth generated scenario.
func Generated(n int) (*Scenario, bool) {
	ops := genOps()
	k := len(ops)
	if n < 0 || n >= k*k+k*k*k {
		return nil, false
	}
	var seq []int
	if n < k*k {
		seq = []int{n / k, n % k}
	} else {
		m := n - k*k
		seq = []int{m / (k * k), (m / k) % k, m % k}
	}
	steps := make([]Step, 0, len(seq)+1)
	keys := make([]string, 0, len(seq))
	for _, oi := range seq {
		op := ops[oi]
		steps = append(steps, fmStep(op.key, op.spec()))
		keys = append(keys, op.key)
	}
	steps = append(steps, probeStep())
	return &Scenario{
		Name:  GenPrefix + strconv.Itoa(n),
		Desc:  "Generated sequence [" + strings.Join(keys, " ") + "] followed by a probing TCP packet.",
		Steps: steps,
	}, true
}

// genIndex parses a canonical generated-scenario name. Non-canonical
// spellings ("gen:007") are rejected so name <-> index stays bijective.
func genIndex(name string) (int, bool) {
	suffix, ok := strings.CutPrefix(name, GenPrefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(suffix)
	if err != nil || n < 0 || strconv.Itoa(n) != suffix {
		return 0, false
	}
	return n, true
}
