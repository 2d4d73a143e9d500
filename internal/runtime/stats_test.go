package runtime

import (
	"testing"
	"unsafe"
)

// TestStatShardSize guards statShard's pad: a shard is exactly two
// 64-byte cache lines, so adding or removing a counter without fixing the
// pad fails here instead of letting neighbouring workers' shards share a
// line.
func TestStatShardSize(t *testing.T) {
	if got := unsafe.Sizeof(statShard{}); got != 128 {
		t.Fatalf("unsafe.Sizeof(statShard{}) = %d, want 128", got)
	}
}
