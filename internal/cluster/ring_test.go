package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func testShards(n int) []string {
	shards := make([]string, n)
	for i := range shards {
		shards[i] = fmt.Sprintf("127.0.0.1:%d", 8000+i)
	}
	return shards
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("spec-%d", i)
	}
	return keys
}

func TestRingOrderCoversAllShardsDeterministically(t *testing.T) {
	shards := testShards(5)
	r := NewRing(shards, 0)
	for _, key := range testKeys(50) {
		order := r.Order(key)
		if len(order) != len(shards) {
			t.Fatalf("Order(%q) returned %d shards, want %d", key, len(order), len(shards))
		}
		seen := map[string]bool{}
		for _, s := range order {
			if seen[s] {
				t.Fatalf("Order(%q) repeats shard %s", key, s)
			}
			seen[s] = true
		}
		if again := r.Order(key); !reflect.DeepEqual(order, again) {
			t.Fatalf("Order(%q) is not deterministic: %v vs %v", key, order, again)
		}
	}
}

func TestRingPlacementIgnoresListOrder(t *testing.T) {
	shards := testShards(4)
	r1 := NewRing(shards, 64)
	reversed := []string{shards[3], shards[2], shards[1], shards[0]}
	r2 := NewRing(reversed, 64)
	for _, key := range testKeys(100) {
		if a, b := r1.Order(key)[0], r2.Order(key)[0]; a != b {
			t.Fatalf("placement depends on shard list order: %s vs %s for %q", a, b, key)
		}
	}
}

// A dead shard must only remap its own keys: every key homed elsewhere
// keeps its placement, which is what makes mark-down/re-admit churn
// cheap for the caches.
func TestRingStabilityUnderMemberLoss(t *testing.T) {
	shards := testShards(5)
	r := NewRing(shards, 64)
	dead := shards[2]
	live := func(s string) bool { return s != dead }
	moved := 0
	for _, key := range testKeys(500) {
		home, ok := r.BoundedPick(key, 0, nil, nil)
		if !ok {
			t.Fatal("BoundedPick failed with all shards live")
		}
		after, ok := r.BoundedPick(key, 0, live, nil)
		if !ok {
			t.Fatal("BoundedPick failed with one dead shard")
		}
		if home == dead {
			moved++
			if after == dead {
				t.Fatalf("key %q still placed on dead shard", key)
			}
			continue
		}
		if after != home {
			t.Fatalf("key %q moved %s -> %s though its home stayed live", key, home, after)
		}
	}
	if moved == 0 {
		t.Fatal("no key was homed on the dead shard; distribution is broken")
	}
}

// Virtual nodes must keep ownership roughly balanced: no shard of four
// should own less than half or more than double its fair share.
func TestRingDistribution(t *testing.T) {
	shards := testShards(4)
	r := NewRing(shards, 64)
	counts := map[string]int{}
	keys := testKeys(2000)
	for _, key := range keys {
		counts[r.Order(key)[0]]++
	}
	fair := len(keys) / len(shards)
	for _, s := range shards {
		if counts[s] < fair/2 || counts[s] > fair*2 {
			t.Errorf("shard %s owns %d of %d keys (fair share %d)", s, counts[s], len(keys), fair)
		}
	}
}

// Bounded loads spill a hot home shard to the next replica, keep a
// lightly loaded home shard sticky (the ceiling c×⌈(total+1)/n⌉ rounds
// up, so one in-flight sub-batch never spills a key at c=1.25), and
// fall back to the home shard when everyone is over the ceiling.
func TestBoundedPickSpillsOverloadedShard(t *testing.T) {
	shards := testShards(3)
	r := NewRing(shards, 64)
	key := "hot-spec"
	order := r.Order(key)
	home, second := order[0], order[1]

	load := func(s string) int {
		if s == home {
			return 100
		}
		return 0
	}
	got, ok := r.BoundedPick(key, 1.25, nil, load)
	if !ok || got != second {
		t.Fatalf("BoundedPick = %s, %v; want spill to %s", got, ok, second)
	}

	// One sub-batch in flight on the home shard stays under the ceiling
	// whatever the cluster size: 1 < 1.25×⌈2/n⌉.
	for _, n := range []int{2, 3} {
		rn := NewRing(testShards(n), 64)
		h := rn.Order(key)[0]
		one := func(s string) int {
			if s == h {
				return 1
			}
			return 0
		}
		if got, ok := rn.BoundedPick(key, 1.25, nil, one); !ok || got != h {
			t.Fatalf("%d shards, home load 1: BoundedPick = %s, %v; want home %s", n, got, ok, h)
		}
	}

	// Home load 3 of total 3 over 2 shards: 3 >= 1.25×⌈4/2⌉ = 2.5 spills.
	r2 := NewRing(testShards(2), 64)
	o2 := r2.Order(key)
	three := func(s string) int {
		if s == o2[0] {
			return 3
		}
		return 0
	}
	if got, ok := r2.BoundedPick(key, 1.25, nil, three); !ok || got != o2[1] {
		t.Fatalf("2 shards, home load 3: BoundedPick = %s, %v; want spill to %s", got, ok, o2[1])
	}

	// c <= 1 disables bounding: pure consistent hashing.
	got, ok = r.BoundedPick(key, 0, nil, load)
	if !ok || got != home {
		t.Fatalf("BoundedPick(c=0) = %s, %v; want home %s", got, ok, home)
	}

	// Uniformly hot: locality wins.
	flat := func(string) int { return 100 }
	got, ok = r.BoundedPick(key, 1.25, nil, flat)
	if !ok || got != home {
		t.Fatalf("BoundedPick(uniform load) = %s, %v; want home %s", got, ok, home)
	}
}
