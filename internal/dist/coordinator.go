package dist

import "time"

// DefaultShardDepth bounds the frontier split: forks whose decision vector
// is longer than this become shards for workers; shallower prefixes the
// coordinator explores itself while splitting. Depth 2 keeps the
// coordinator's share of the tree tiny while producing enough subtrees to
// feed several workers.
const DefaultShardDepth = 2

// DefaultLeaseTimeout is how long a shard may stay leased without
// completing before the coordinator offers it to another worker. Re-leasing
// is safe at any timeout — first result wins and duplicates are identical —
// so the default only trades duplicated work against stall detection.
const DefaultLeaseTimeout = 2 * time.Minute
