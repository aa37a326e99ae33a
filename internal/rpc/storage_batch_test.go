package rpc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/topology"
)

// multiPut stores keys first..first+n-1 on addr in one OpMultiPut, the
// value of key k being "v<k>".
func multiPut(t *testing.T, addr string, first, n int) {
	t.Helper()
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	req := &Request{Op: OpMultiPut}
	for k := first; k < first+n; k++ {
		req.Keys = append(req.Keys, uint64(k))
		req.Values = append(req.Values, []byte(fmt.Sprintf("v%d", k)))
	}
	if _, err := cn.Call(context.Background(), req); err != nil {
		t.Fatalf("multiput %d..%d: %v", first, first+n-1, err)
	}
}

// stored reports whether srv holds key.
func stored(srv *StorageServer, key uint64) bool {
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	_, ok := srv.data[key]
	return ok
}

// liveIDs lists g's live nodes.
func liveIDs(g *graph.Graph) []graph.NodeID {
	var ids []graph.NodeID
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		if g.Exists(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestLoadGraphBatchedDurable loads a graph onto one durable shard through
// the batched path: every record is its own WAL record and durable
// version, and a crash-restart comes back warm with all of them.
func TestLoadGraphBatchedDurable(t *testing.T) {
	g := gen.LocalWeb(600, 8, 40, 0.01, 2)
	n := int64(len(liveIDs(g)))
	dir := t.TempDir()
	srv, err := NewStorageServerDurable("127.0.0.1:0", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := DialStorage([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.LoadGraph(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	st := srv.Stats()
	if st.DurableVersion != uint64(n) || st.WALRecords != n || st.Keys != n {
		t.Fatalf("after load of %d records: dur-ver %d, wal records %d, keys %d", n, st.DurableVersion, st.WALRecords, st.Keys)
	}
	if st.Requests >= n {
		t.Fatalf("%d storage requests for %d records: load is not batched", st.Requests, n)
	}
	addr := srv.Addr()
	srv.Close()

	restarted, err := NewStorageServerDurable(addr, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if st := restarted.Stats(); st.Durable != "warm" || st.Keys != n || st.DurableVersion != uint64(n) {
		t.Fatalf("restart: state %q keys %d dur-ver %d, want warm %d", st.Durable, st.Keys, st.DurableVersion, n)
	}
	sc, err = DialStorage([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	recs, err := sc.MultiGet(context.Background(), liveIDs(g))
	if err != nil || int64(len(recs)) != n {
		t.Fatalf("read back %d of %d records after restart: %v", len(recs), n, err)
	}
}

// TestMultiPutCompactsMidBatch sends one batch larger than the snapshot
// interval: the shard compacts after applying it, truncating the WAL, and
// a restart recovers the whole batch from the snapshot.
func TestMultiPutCompactsMidBatch(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewStorageServerDurable("127.0.0.1:0", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetSnapshotEvery(50)
	const n = 130
	multiPut(t, srv.Addr(), 0, n)
	st := srv.Stats()
	if st.Snapshots != 1 || st.WALRecords != 0 || st.DurableVersion != n {
		t.Fatalf("after a %d-record batch: snapshots %d, wal records %d, dur-ver %d", n, st.Snapshots, st.WALRecords, st.DurableVersion)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard.snap")); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	addr := srv.Addr()
	srv.Close()
	restarted, err := NewStorageServerDurable(addr, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if st := restarted.Stats(); st.Keys != n || st.Durable != "warm" || st.DurableVersion != n {
		t.Fatalf("restart after compaction: keys %d state %q dur-ver %d", st.Keys, st.Durable, st.DurableVersion)
	}
}

// TestMultiPutTornBatchReplaysPrefix cuts the WAL in the middle of the
// last batch's write, as a crash during that write would: the restart
// keeps every earlier batch and an intact prefix of the torn one — records
// that were never acked, in order, with nothing after a gap.
func TestMultiPutTornBatchReplaysPrefix(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewStorageServerDurable("127.0.0.1:0", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	multiPut(t, srv.Addr(), 0, 10)
	acked := srv.Stats().WALBytes
	multiPut(t, srv.Addr(), 10, 10)
	full := srv.Stats().WALBytes
	addr := srv.Addr()
	srv.Close()
	walPath := filepath.Join(dir, "shard.wal")
	if err := os.Truncate(walPath, acked+(full-acked)/2); err != nil {
		t.Fatal(err)
	}

	restarted, err := NewStorageServerDurable(addr, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	st := restarted.Stats()
	if st.Keys <= 10 || st.Keys >= 20 {
		t.Fatalf("torn second batch recovered %d keys, want the first 10 plus a strict prefix of the next 10", st.Keys)
	}
	if st.DurableVersion != uint64(st.Keys) {
		t.Fatalf("dur-ver %d for %d recovered records", st.DurableVersion, st.Keys)
	}
	cn, err := Dial(restarted.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	for k := 0; k < 20; k++ {
		resp, err := cn.Call(context.Background(), &Request{Op: OpGet, Key: uint64(k)})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(k) < st.Keys
		if resp.Found != want || (want && string(resp.Value) != fmt.Sprintf("v%d", k)) {
			t.Fatalf("key %d after torn replay: found %v value %q, want found %v", k, resp.Found, resp.Value, want)
		}
	}
}

// TestStorageWriteAfterFailedAppend closes a durable shard's WAL under it:
// every write must now fail, and none may become visible — a write is
// applied only after its log append succeeded.
func TestStorageWriteAfterFailedAppend(t *testing.T) {
	srv, err := NewStorageServerDurable("127.0.0.1:0", t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	multiPut(t, srv.Addr(), 1, 1) // key 1 = "v1"
	srv.mu.Lock()
	srv.wal.Close()
	srv.mu.Unlock()

	cn, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ctx := context.Background()
	get := func(key uint64) Response {
		t.Helper()
		resp, err := cn.Call(ctx, &Request{Op: OpGet, Key: key})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if _, err := cn.Call(ctx, &Request{Op: OpPut, Key: 1, Value: []byte("v1-new")}); err == nil {
		t.Fatal("put succeeded with the WAL closed")
	}
	if resp := get(1); !resp.Found || string(resp.Value) != "v1" {
		t.Fatalf("after failed put: found %v value %q, want v1", resp.Found, resp.Value)
	}
	if _, err := cn.Call(ctx, &Request{Op: OpMultiPut, Keys: []uint64{1, 2}, Values: [][]byte{[]byte("x"), []byte("y")}}); err == nil {
		t.Fatal("multiput succeeded with the WAL closed")
	}
	if resp := get(2); resp.Found {
		t.Fatal("failed multiput left key 2 visible")
	}
	if _, err := cn.Call(ctx, &Request{Op: OpDrop, Key: 1}); err == nil {
		t.Fatal("drop succeeded with the WAL closed")
	}
	if resp := get(1); !resp.Found || string(resp.Value) != "v1" {
		t.Fatalf("after failed drop: found %v value %q, want v1", resp.Found, resp.Value)
	}
	if st := srv.Stats(); st.DurableVersion != 1 {
		t.Fatalf("failed appends advanced the durable version to %d", st.DurableVersion)
	}
}

// TestMultiPutRejectsMisalignedBatch checks a batch whose keys and values
// disagree in length is refused as a bad request and stores nothing.
func TestMultiPutRejectsMisalignedBatch(t *testing.T) {
	_, addrs := startStorageShards(t, 1)
	cn, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	_, err = cn.Call(context.Background(), &Request{Op: OpMultiPut, Keys: []uint64{1, 2}, Values: [][]byte{[]byte("x")}})
	if !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("misaligned multiput: err = %v, want ErrBadQuery", err)
	}
	if resp, _ := cn.Call(context.Background(), &Request{Op: OpGet, Key: 1}); resp.Found {
		t.Fatal("misaligned multiput stored a value")
	}
}

// bulkGraph is large enough that every shard receives several batches.
func bulkGraph() *graph.Graph { return gen.ErdosRenyi(20000, 200000, 5) }

// TestLoadGraphReplicatedSurvivesDeadShard closes one of two R=2 shards
// after the loader dialled: the load still succeeds, because every key
// has a replica on the survivor, and every key reads back from it.
func TestLoadGraphReplicatedSurvivesDeadShard(t *testing.T) {
	g := bulkGraph()
	servers, addrs := startStorageShards(t, 2)
	sc, err := DialStorageReplicated(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	servers[1].Close()
	if err := sc.LoadGraph(context.Background(), g); err != nil {
		t.Fatalf("load with one of two R=2 replicas dead: %v", err)
	}
	survivor, err := DialStorage(addrs[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()
	ids := liveIDs(g)
	recs, err := survivor.MultiGet(context.Background(), ids)
	if err != nil || len(recs) != len(ids) {
		t.Fatalf("survivor holds %d of %d records: %v", len(recs), len(ids), err)
	}
}

// TestLoadGraphUnreplicatedDeadShardFails closes one of two R=1 shards
// after the loader dialled: the keys placed on it have no other replica,
// so the load fails with the typed unavailable error.
func TestLoadGraphUnreplicatedDeadShardFails(t *testing.T) {
	g := bulkGraph()
	servers, addrs := startStorageShards(t, 2)
	sc, err := DialStorage(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	servers[1].Close()
	if err := sc.LoadGraph(context.Background(), g); !errors.Is(err, query.ErrUnavailable) {
		t.Fatalf("R=1 load onto a dead shard: err = %v, want ErrUnavailable", err)
	}
}

// TestLoadGraphDownFlagIsAdvisory marks a live shard down and kills
// another of three R=2 shards: keys whose only replica thought healthy is
// the dead one must still land on the replica flagged down, so the load
// succeeds and every key reads back.
func TestLoadGraphDownFlagIsAdvisory(t *testing.T) {
	g := bulkGraph()
	servers, addrs := startStorageShards(t, 3)
	sc, err := DialStorageReplicated(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	servers[1].Close()
	sc.markDown(0)
	if err := sc.LoadGraph(context.Background(), g); err != nil {
		t.Fatalf("load with shard 0 flagged down and shard 1 dead: %v", err)
	}
	for _, id := range liveIDs(g) {
		var buf [topology.MaxReplicas]int
		pl := sc.placement(uint64(id), buf[:0])
		found := false
		for _, shard := range pl {
			if shard != 1 && stored(servers[shard], uint64(id)) {
				found = true
			}
		}
		if !found {
			t.Fatalf("key %d (placement %v) stored on no live replica", id, pl)
		}
	}
}
