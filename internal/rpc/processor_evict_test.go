package rpc

import (
	"context"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/gstore"
)

// TestFetchDoesNotCacheAcrossEviction pins the lost-eviction race: a
// processor's storage fetch reads a record, a write's OpEvict for that key
// lands while the fetch is still in flight, and only then does the old
// record arrive. The in-flight query may use it, but the cache must not
// keep it, or every later read would miss the write.
func TestFetchDoesNotCacheAcrossEviction(t *testing.T) {
	const key = 1
	oldRec := gstore.Encode(nil, &gstore.Record{Node: key, NodeLabel: 1})
	newRec := gstore.Encode(nil, &gstore.Record{Node: key, NodeLabel: 2})
	var value atomic.Pointer[[]byte]
	value.Store(&oldRec)
	started := make(chan struct{})
	release := make(chan struct{})
	var block atomic.Bool
	block.Store(true)

	// A stub storage shard whose first multiget blocks until released, then
	// answers with whatever value was current when it started.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var ct connTracker
	t.Cleanup(func() { ln.Close(); ct.closeAll() })
	go serve(ln, func(_ context.Context, req *Request) Response {
		if req.Op != OpMultiGet {
			return Response{OK: true}
		}
		v := *value.Load()
		if block.CompareAndSwap(true, false) {
			close(started)
			<-release
		}
		resp := Response{OK: true}
		for range req.Keys {
			resp.Values = append(resp.Values, v)
			resp.Founds = append(resp.Founds, true)
		}
		return resp
	}, &ct)

	p, err := NewProcessorServer("127.0.0.1:0", []string{ln.Addr().String()}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	ctx := context.Background()

	type result struct {
		recs map[graph.NodeID]gstore.Record
		err  error
	}
	done := make(chan result, 1)
	go func() {
		recs, err := p.fetch(ctx, []graph.NodeID{key})
		done <- result{recs, err}
	}()
	<-started
	// The write lands in storage and its eviction reaches the processor
	// while the fetch above still holds the pre-write record.
	value.Store(&newRec)
	if resp := p.handle(ctx, &Request{Op: OpEvict, Keys: []uint64{key}}); !resp.OK {
		t.Fatalf("evict: %+v", resp)
	}
	close(release)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if got := res.recs[key].NodeLabel; got != 1 {
		t.Fatalf("in-flight fetch returned label %d, want the record it read (1)", got)
	}
	p.mu.Lock()
	cached := p.cache.Contains(key)
	p.mu.Unlock()
	if cached {
		t.Fatal("record fetched before an eviction stayed cached after it")
	}
	recs, err := p.fetch(ctx, []graph.NodeID{key})
	if err != nil {
		t.Fatal(err)
	}
	if got := recs[key].NodeLabel; got != 2 {
		t.Fatalf("read after the write's eviction returned label %d, want 2", got)
	}
}
