package mdcc_test

// Tests for the per-destination message batching of the wire protocol:
// per-option semantics on mixed batches, resilience to losing a whole batch
// message, a commit's message count and its determinism, and the outcomes
// the per-option protocol rules imply.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"planet/internal/cluster"
	"planet/internal/mdcc"
	"planet/internal/regions"
	"planet/internal/txn"
)

// multiOps builds an n-option fast-path transaction over seeded keys.
func multiOps(c *cluster.Cluster, t *testing.T, prefix string, n int) []txn.Op {
	t.Helper()
	ops := make([]txn.Op, n)
	for i := range ops {
		key := fmt.Sprintf("%s-%03d", prefix, i)
		c.SeedBytes(key, []byte("v0"))
		v, ok := c.Replica(regions.California).ReadLocal(key)
		if !ok {
			t.Fatalf("seeded key %s missing", key)
		}
		ops[i] = txn.Op{Kind: txn.OpSet, Key: key, Value: []byte("v1"), ReadVersion: v.Version}
	}
	return ops
}

func TestBatchMixedAcceptReject(t *testing.T) {
	// A batch carrying both acceptable and fatally-rejectable options must
	// produce per-option votes: the stale option's version reject is fatal
	// and aborts the transaction even though its batchmates validate.
	c := newTestCluster(t, cluster.Config{})
	ops := multiOps(c, t, "mixed", 3)
	ops[1].ReadVersion = 99 // stale: no replica has version 99

	committed, err, sink := submit(t, c, regions.California, ops, mdcc.ModeFast)
	if committed {
		t.Fatal("transaction with a fatally stale option committed")
	}
	if err == nil {
		t.Fatal("expected an abort error")
	}
	if kinds := sink.eventKinds(); kinds[mdcc.KindVote] == 0 {
		t.Errorf("expected per-option vote events, got %v", kinds)
	}

	// The batchmates must not have been applied anywhere.
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	for _, r := range c.Regions() {
		for _, op := range ops {
			v, ok := c.Replica(r).ReadLocal(op.Key)
			if !ok || string(v.Bytes) != "v0" {
				t.Errorf("%s/%s: got %q, want untouched v0", r, op.Key, v.Bytes)
			}
		}
	}
}

func TestBatchAllAcceptCommits(t *testing.T) {
	c := newTestCluster(t, cluster.Config{})
	ops := multiOps(c, t, "ok", 4)
	committed, err, _ := submit(t, c, regions.California, ops, mdcc.ModeFast)
	if !committed || err != nil {
		t.Fatalf("want commit, got committed=%v err=%v", committed, err)
	}
	if !c.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	for _, r := range c.Regions() {
		for _, op := range ops {
			v, _ := c.Replica(r).ReadLocal(op.Key)
			if string(v.Bytes) != "v1" {
				t.Errorf("%s/%s: got %q, want v1", r, op.Key, v.Bytes)
			}
		}
	}
}

func TestBatchPartialLossFastQuorum(t *testing.T) {
	// Cutting one replica→coordinator link loses that replica's entire
	// coalesced vote batch. The fast path must still commit from the
	// remaining four votes (fast quorum of five is four).
	c := newTestCluster(t, cluster.Config{})
	ops := multiOps(c, t, "cut1", 3)
	c.Net.SetLinkCut(regions.Tokyo, regions.California, true)

	committed, err, _ := submit(t, c, regions.California, ops, mdcc.ModeFast)
	if !committed || err != nil {
		t.Fatalf("want commit despite one lost vote batch, got committed=%v err=%v", committed, err)
	}
}

func TestBatchPartialLossClassicQuorum(t *testing.T) {
	// The classic path coalesces phase2a/2b into per-destination batches.
	// Losing two replicas' phase2b batches leaves three of five acceptors —
	// exactly the classic quorum — so the commit must still go through.
	c := newTestCluster(t, cluster.Config{MasterRegion: regions.California})
	ops := multiOps(c, t, "cut2", 3)
	c.Net.SetLinkCut(regions.Tokyo, regions.California, true)
	c.Net.SetLinkCut(regions.Singapore, regions.California, true)

	committed, err, _ := submit(t, c, regions.California, ops, mdcc.ModeClassic)
	if !committed || err != nil {
		t.Fatalf("want classic commit with 3/5 acceptors, got committed=%v err=%v", committed, err)
	}
}

func TestBatchMessageCountDeterministic(t *testing.T) {
	// Batching exists to make a commit's message count independent of its
	// option count, and that count must be deterministic. On five regions a
	// fast-path commit sends exactly one proposal, one vote batch and one
	// decide per replica — 15 messages — whether the transaction carries
	// one option or eight; two identical runs send identical counts.
	count := func(n int) uint64 {
		c := newTestCluster(t, cluster.Config{})
		ops := multiOps(c, t, "count", n)
		before := c.Net.Sent.Load()
		committed, err, _ := submit(t, c, regions.California, ops, mdcc.ModeFast)
		if !committed || err != nil {
			t.Fatalf("want commit, got committed=%v err=%v", committed, err)
		}
		if !c.Quiesce(5 * time.Second) {
			t.Fatal("network did not quiesce")
		}
		return c.Net.Sent.Load() - before
	}

	for _, n := range []int{1, 2, 4, 8} {
		got := count(n)
		if again := count(n); again != got {
			t.Errorf("%d options: message count not deterministic: %d vs %d", n, got, again)
		}
		if got != 15 {
			t.Errorf("%d options: fast-path commit sent %d messages, want 15 (3 per replica)", n, got)
		}
	}
}

// TestBatchPerOptionEquivalence drives a fixed transaction sequence through
// the batched wire for several seeds and demands the outcomes MDCC's
// per-option rules imply, and identical final state on every replica: each
// item of a batch is judged as its own per-option message would be. The
// mix includes multi-key sets spanning masters, bounded adds, a bound
// violation, and a stale read version.
func TestBatchPerOptionEquivalence(t *testing.T) {
	txns := [][]txn.Op{
		{ // multi-key fast-path set, masters spread by key hash
			{Kind: txn.OpSet, Key: "eq-b-0", Value: []byte("a"), ReadVersion: 0},
			{Kind: txn.OpSet, Key: "eq-b-1", Value: []byte("b"), ReadVersion: 0},
			{Kind: txn.OpSet, Key: "eq-b-2", Value: []byte("c"), ReadVersion: 0},
		},
		{ // commutative adds within bounds
			{Kind: txn.OpAdd, Key: "eq-i-0", Delta: 5},
			{Kind: txn.OpAdd, Key: "eq-i-1", Delta: -3},
		},
		{ // bound violation: 10-50 < 0 is a fatal reject
			{Kind: txn.OpAdd, Key: "eq-i-2", Delta: -50},
		},
		{ // stale read version: fatal reject
			{Kind: txn.OpSet, Key: "eq-b-3", Value: []byte("x"), ReadVersion: 7},
		},
		{ // second write to an already-written key, correct version
			{Kind: txn.OpSet, Key: "eq-b-0", Value: []byte("a2"), ReadVersion: 1},
		},
	}
	// wantErr is each transaction's outcome: nil commits, anything else
	// aborts with that error.
	wantErr := []error{nil, nil, mdcc.ErrBound, mdcc.ErrConflict, nil}
	wantBytes := map[string]struct {
		value   string
		version int64
	}{
		"eq-b-0": {"a2", 2}, "eq-b-1": {"b", 1}, "eq-b-2": {"c", 1}, "eq-b-3": {"v0", 0},
	}
	wantInts := map[string]int64{"eq-i-0": 15, "eq-i-1": 7, "eq-i-2": 10}

	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newTestCluster(t, cluster.Config{Seed: seed})
			for i := 0; i < 4; i++ {
				c.SeedBytes(fmt.Sprintf("eq-b-%d", i), []byte("v0"))
			}
			for i := 0; i < 4; i++ {
				c.SeedInt(fmt.Sprintf("eq-i-%d", i), 10, 0, 100)
			}
			for i, ops := range txns {
				committed, err, _ := submit(t, c, regions.Ireland, ops, mdcc.ModeFast)
				if want := wantErr[i]; committed != (want == nil) || !errors.Is(err, want) {
					t.Errorf("txn %d: committed=%v err=%v, want err=%v", i, committed, err, want)
				}
			}
			if !c.Quiesce(5 * time.Second) {
				t.Fatal("network did not quiesce")
			}
			var first map[string]mdcc.Value
			for _, r := range c.Regions() {
				snap := c.Replica(r).Snapshot()
				if first == nil {
					first = snap
				} else if !reflect.DeepEqual(snap, first) {
					t.Errorf("replica %s state diverges from %s", r, c.Regions()[0])
				}
			}
			for key, want := range wantBytes {
				v := first[key]
				if string(v.Bytes) != want.value || v.Version != want.version {
					t.Errorf("%s = %q@v%d, want %q@v%d", key, v.Bytes, v.Version, want.value, want.version)
				}
			}
			for key, want := range wantInts {
				if v := first[key]; v.Int != want {
					t.Errorf("%s = %d, want %d", key, v.Int, want)
				}
			}
		})
	}
}
