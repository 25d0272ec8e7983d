package flowtable

// ResetCondMemo empties the process-wide condition memo.
func ResetCondMemo() {
	condMemo.mu.Lock()
	condMemo.m = nil
	condMemo.mu.Unlock()
}

// MatchCondMemoLen reports how many memo entries MatchCond has built.
func MatchCondMemoLen() int {
	condMemo.mu.RLock()
	defer condMemo.mu.RUnlock()
	n := 0
	for k := range condMemo.m {
		if k.kind == condMatch {
			n++
		}
	}
	return n
}
