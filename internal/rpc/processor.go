package rpc

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/mquery"
	"repro/internal/query"
	"repro/internal/xrand"
)

// ProcessorServer is one query processor of the processing tier: it
// receives query batches (from the router), executes the h-hop traversals
// against the storage tier, and caches fetched records in a byte-bounded
// LRU. Processors never talk to each other (Section 2.3). Concurrent
// batches share the cache under a mutex; storage fetches ride the pooled
// shard connections with the caller's deadline.
type ProcessorServer struct {
	ln      net.Listener
	ct      connTracker
	storage *StorageClient

	mu    sync.Mutex // guards cache, evictGen and heat
	cache *cache.LRU[gstore.Record]
	// evictGen counts OpEvict requests. A fetch notes it before going to
	// storage and caches what it fetched only if no eviction landed
	// meanwhile: a record read before a write but returned after the
	// write's eviction must not stay cached (read-your-writes).
	evictGen uint64
	// heat counts storage misses per record since the last OpHeat drain —
	// the adaptive-placement planner's read signal. Cache hits contribute
	// nothing: a record the cache absorbs needs no migration. Bounded at
	// heatCap keys (new keys are dropped when full; the periodic drain
	// empties it).
	heat map[uint64]int64

	regMu      sync.Mutex // guards the registration below
	routerAddr string     // router this processor registered with ("" = none)
	advertise  string     // address announced to the router
	slot       int        // slot the router assigned

	hits, misses atomic.Int64
	executed     atomic.Int64
}

// ProcessorConfig configures a networked query processor.
type ProcessorConfig struct {
	// Storage lists the storage shards the processor fetches from.
	Storage []string
	// StorageReplicas is the storage tier's replication factor: it must
	// match what the loader used, since placement is client-side. 0 or 1
	// means unreplicated.
	StorageReplicas int
	// CacheBytes is the processor's LRU capacity.
	CacheBytes int64
}

// NewProcessorServer starts a processor on addr, fetching from the given
// unreplicated storage shards with cacheBytes of LRU capacity.
func NewProcessorServer(addr string, storageAddrs []string, cacheBytes int64) (*ProcessorServer, error) {
	return NewProcessorServerWith(addr, ProcessorConfig{Storage: storageAddrs, CacheBytes: cacheBytes})
}

// NewProcessorServerWith starts a processor on addr with the full
// configuration, including the storage replication factor.
func NewProcessorServerWith(addr string, cfg ProcessorConfig) (*ProcessorServer, error) {
	replicas := cfg.StorageReplicas
	if replicas == 0 {
		replicas = 1
	}
	sc, err := DialStorageReplicated(cfg.Storage, replicas)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		sc.Close()
		return nil, fmt.Errorf("rpc: processor listen: %w", err)
	}
	p := &ProcessorServer{ln: ln, storage: sc, cache: cache.New[gstore.Record](cfg.CacheBytes), heat: make(map[uint64]int64), slot: -1}
	go serve(ln, p.handle, &p.ct)
	return p, nil
}

// RegisteredSlot returns the slot the router assigned at Register, or -1
// when the processor never registered (or has deregistered).
func (p *ProcessorServer) RegisteredSlot() int {
	p.regMu.Lock()
	defer p.regMu.Unlock()
	if p.routerAddr == "" {
		return -1
	}
	return p.slot
}

// Addr returns the processor's listen address.
func (p *ProcessorServer) Addr() string { return p.ln.Addr().String() }

// Register announces this processor to a running router (OpJoin): the
// router dials back to verify it, admits it into the topology at a new
// epoch and starts routing to it immediately — scale-out without
// restarting anything. advertise is the address announced to the router
// ("" uses the listen address, right whenever router and processor share
// a network). The returned slot is the processor's stable id; Deregister
// uses the remembered registration for the clean-leave path.
func (p *ProcessorServer) Register(ctx context.Context, routerAddr, advertise string) (int, error) {
	if advertise == "" {
		advertise = p.Addr()
	}
	cn, err := DialContext(ctx, routerAddr)
	if err != nil {
		return 0, err
	}
	defer cn.Close()
	resp, err := cn.Call(ctx, &Request{Op: OpJoin, Addr: advertise})
	if err != nil {
		return 0, err
	}
	p.regMu.Lock()
	p.routerAddr, p.advertise, p.slot = routerAddr, advertise, resp.Proc
	p.regMu.Unlock()
	return resp.Proc, nil
}

// Deregister leaves the router cleanly (OpDrain): the router stops
// sending new work and removes the member once its in-flight queries
// finish, so shutting this processor down afterwards is invisible to
// clients. No-op when the processor never registered.
func (p *ProcessorServer) Deregister(ctx context.Context) error {
	p.regMu.Lock()
	routerAddr, advertise := p.routerAddr, p.advertise
	p.regMu.Unlock()
	if routerAddr == "" {
		return nil
	}
	cn, err := DialContext(ctx, routerAddr)
	if err != nil {
		return err
	}
	defer cn.Close()
	if _, err := cn.Call(ctx, &Request{Op: OpDrain, Addr: advertise}); err != nil {
		// Keep the registration: the drain did not land, so a retry must
		// still know who to deregister from.
		return err
	}
	p.regMu.Lock()
	if p.routerAddr == routerAddr {
		p.routerAddr = ""
	}
	p.regMu.Unlock()
	return nil
}

// Close stops the processor, severing live connections.
func (p *ProcessorServer) Close() error {
	p.storage.Close()
	err := p.ln.Close()
	p.ct.closeAll()
	return err
}

// Stats returns the processor's counters, including the full cache
// accounting (hits, misses, evictions, resident bytes).
func (p *ProcessorServer) Stats() Stats {
	p.mu.Lock()
	cc := p.cache.Stats().Counters()
	p.mu.Unlock()
	return Stats{
		Role:     "processor",
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Executed: p.executed.Load(),
		Cache:    &cc,
	}
}

func (p *ProcessorServer) handle(ctx context.Context, req *Request) Response {
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpStats:
		st := p.Stats()
		return Response{OK: true, Stats: &st}
	case OpEvict:
		// Post-mutation cache eviction: drop every named record so the next
		// read refetches the rewritten version from storage.
		p.mu.Lock()
		p.evictGen++
		for _, k := range req.Keys {
			p.cache.Remove(k)
		}
		p.mu.Unlock()
		return Response{OK: true}
	case OpHeat:
		return Response{OK: true, Hot: p.drainHeat()}
	case OpPlacement:
		p.storage.SetOverrides(req.Overrides)
		return Response{OK: true}
	case OpExecute:
		if req.Exec == nil || (len(req.Exec.Queries) == 0 && len(req.Exec.Subtasks) == 0) {
			return errorResponse(fmt.Errorf("%w: execute request carries no queries", query.ErrBadQuery))
		}
		if len(req.Exec.Subtasks) > 0 {
			if len(req.Exec.Queries) > 0 {
				return errorResponse(fmt.Errorf("%w: execute request mixes queries and subtasks", query.ErrBadQuery))
			}
			partials := make([]mquery.Partial, len(req.Exec.Subtasks))
			for i, st := range req.Exec.Subtasks {
				if err := ctx.Err(); err != nil {
					return errorResponse(err)
				}
				part, _, err := mquery.Run(st, func(ids []graph.NodeID) (map[graph.NodeID]gstore.Record, error) {
					return p.fetch(ctx, ids)
				})
				if err != nil {
					return errorResponse(err)
				}
				p.executed.Add(1)
				partials[i] = part
			}
			p.mu.Lock()
			cc := p.cache.Stats().Counters()
			p.mu.Unlock()
			return Response{OK: true, Partials: partials, ProcCache: &cc}
		}
		results := make([]query.Result, len(req.Exec.Queries))
		for i, q := range req.Exec.Queries {
			res, err := p.execute(ctx, q)
			if err != nil {
				return errorResponse(err)
			}
			p.executed.Add(1)
			results[i] = res
		}
		p.mu.Lock()
		cc := p.cache.Stats().Counters()
		p.mu.Unlock()
		return Response{OK: true, Results: results, ProcCache: &cc}
	}
	return errorResponse(fmt.Errorf("processor: unknown op %q", req.Op))
}

// fetch obtains records through the cache, batching misses to storage.
func (p *ProcessorServer) fetch(ctx context.Context, ids []graph.NodeID) (map[graph.NodeID]gstore.Record, error) {
	out := make(map[graph.NodeID]gstore.Record, len(ids))
	var miss []graph.NodeID
	if err := p.fetchInto(ctx, ids, out, &miss); err != nil {
		return nil, err
	}
	return out, nil
}

// fetchInto is fetch filling a caller-owned map (not cleared here) and
// reusing a caller-owned miss buffer, so a cache-hitting fetch allocates
// nothing — the traversal loops run it once per BFS level. Fetched records
// always reach the caller, but enter the cache only when no OpEvict landed
// while they were being fetched.
func (p *ProcessorServer) fetchInto(ctx context.Context, ids []graph.NodeID, out map[graph.NodeID]gstore.Record, missBuf *[]graph.NodeID) error {
	miss := (*missBuf)[:0]
	p.mu.Lock()
	gen := p.evictGen
	for _, id := range ids {
		if rec, ok := p.cache.Get(uint64(id)); ok {
			out[id] = rec
		} else {
			miss = append(miss, id)
		}
	}
	p.mu.Unlock()
	*missBuf = miss
	p.hits.Add(int64(len(ids) - len(miss)))
	p.misses.Add(int64(len(miss)))
	if len(miss) == 0 {
		return nil
	}
	fetched, err := p.storage.MultiGet(ctx, miss)
	if err != nil {
		return err
	}
	p.mu.Lock()
	cacheable := p.evictGen == gen
	for id, rec := range fetched {
		out[id] = rec
		if cacheable {
			// Approximate the record's resident size for capacity accounting.
			size := int64(16 + 8*(len(rec.Out)+len(rec.In)))
			p.cache.Put(uint64(id), rec, size)
		}
		if _, hot := p.heat[uint64(id)]; hot || len(p.heat) < heatCap {
			p.heat[uint64(id)]++
		}
	}
	p.mu.Unlock()
	return nil
}

// execScratch is the per-query traversal state (record map, visited sets,
// frontier buffers) one execution reuses across BFS levels. Pooled so a
// steady-state cache-hitting query allocates nothing beyond what its
// frontier outgrows.
type execScratch struct {
	recs   map[graph.NodeID]gstore.Record
	miss   []graph.NodeID
	visA   map[graph.NodeID]struct{}
	visB   map[graph.NodeID]struct{}
	front  []graph.NodeID
	front2 []graph.NodeID
	spare  []graph.NodeID
}

var scratchPool = sync.Pool{New: func() any {
	return &execScratch{
		recs: make(map[graph.NodeID]gstore.Record),
		visA: make(map[graph.NodeID]struct{}),
		visB: make(map[graph.NodeID]struct{}),
	}
}}

func getScratch() *execScratch {
	sc := scratchPool.Get().(*execScratch)
	clear(sc.recs)
	clear(sc.visA)
	clear(sc.visB)
	return sc
}

// putScratch recycles sc unless a giant traversal grew its tables past the
// point where pinning them beats reallocating (cleared maps keep their
// buckets forever).
func putScratch(sc *execScratch) {
	if len(sc.recs) > 1<<15 || len(sc.visA) > 1<<15 || len(sc.visB) > 1<<15 {
		return
	}
	scratchPool.Put(sc)
}

// Heat bounds: at most heatCap distinct records are tracked between
// drains, and a drain reports the hottest heatTopK of them.
const (
	heatCap  = 8192
	heatTopK = 64
)

// drainHeat returns the hottest missed records since the previous drain,
// hottest first (key ascending on ties, so the report is deterministic),
// and resets the accumulator.
func (p *ProcessorServer) drainHeat() []HotKey {
	p.mu.Lock()
	hot := make([]HotKey, 0, len(p.heat))
	for k, n := range p.heat {
		hot = append(hot, HotKey{Key: k, Reads: n})
	}
	p.heat = make(map[uint64]int64)
	p.mu.Unlock()
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Reads != hot[j].Reads {
			return hot[i].Reads > hot[j].Reads
		}
		return hot[i].Key < hot[j].Key
	})
	if len(hot) > heatTopK {
		hot = hot[:heatTopK]
	}
	return hot
}

// execute validates and runs one query with the same algorithms the
// virtual-time engine uses (levelwise batched BFS, seeded walk,
// bidirectional BFS), so results agree exactly with query.Answer. A query
// whose Node has no record in the storage tier fails with
// query.ErrUnknownNode, matching the virtual-time client.
func (p *ProcessorServer) execute(ctx context.Context, q query.Query) (query.Result, error) {
	if err := q.Validate(); err != nil {
		return query.Result{}, err
	}
	sc := getScratch()
	defer putScratch(sc)
	// Existence probe: one cached lookup of the query node's record. The
	// fetch warms the cache, so the traversal's own level-0 fetch hits.
	sc.front = append(sc.front[:0], q.Node)
	if err := p.fetchInto(ctx, sc.front, sc.recs, &sc.miss); err != nil {
		return query.Result{}, err
	}
	if _, ok := sc.recs[q.Node]; !ok {
		return query.Result{}, fmt.Errorf("%w: node %d has no record in the storage tier", query.ErrUnknownNode, q.Node)
	}
	switch q.Type {
	case query.NeighborAgg:
		return p.execAgg(ctx, q, sc)
	case query.RandomWalk:
		return p.execWalk(ctx, q, sc)
	case query.Reachability:
		return p.execReach(ctx, q, sc)
	}
	return query.Result{}, fmt.Errorf("%w: unknown query type %v", query.ErrBadQuery, q.Type)
}

func (p *ProcessorServer) execAgg(ctx context.Context, q query.Query, sc *execScratch) (query.Result, error) {
	// Label filtering needs the graph's label table, which only the
	// storage-side loader has; the networked processor serves unfiltered
	// aggregation.
	if q.CountLabel != "" {
		return query.Result{}, fmt.Errorf("%w: label-filtered aggregation is not supported over rpc", query.ErrBadQuery)
	}
	visited := sc.visA
	visited[q.Node] = struct{}{}
	frontier := append(sc.front[:0], q.Node)
	spare := sc.front2
	count := 0
	for level := 0; level <= q.Hops && len(frontier) > 0; level++ {
		clear(sc.recs)
		if err := p.fetchInto(ctx, frontier, sc.recs, &sc.miss); err != nil {
			return query.Result{}, err
		}
		if level > 0 {
			count += len(frontier)
		}
		if level == q.Hops {
			break
		}
		next := spare[:0]
		for _, u := range frontier {
			rec, ok := sc.recs[u]
			if !ok {
				continue
			}
			forEdge(rec, q.Dir, func(v graph.NodeID) {
				if _, seen := visited[v]; !seen {
					visited[v] = struct{}{}
					next = append(next, v)
				}
			})
		}
		spare, frontier = frontier, next
	}
	sc.front, sc.front2 = frontier, spare
	return query.Result{Type: q.Type, Count: count}, nil
}

func (p *ProcessorServer) execWalk(ctx context.Context, q query.Query, sc *execScratch) (query.Result, error) {
	rng := xrand.New(q.Seed)
	cur := q.Node
	for step := 0; step < q.Hops; step++ {
		if q.RestartProb > 0 && rng.Float64() < q.RestartProb {
			cur = q.Node
			continue
		}
		clear(sc.recs)
		sc.front = append(sc.front[:0], cur)
		if err := p.fetchInto(ctx, sc.front, sc.recs, &sc.miss); err != nil {
			return query.Result{}, err
		}
		rec := sc.recs[cur]
		next, ok := query.WalkStep(rec.Out, rec.In, q.Dir, rng)
		if !ok {
			cur = q.Node
			continue
		}
		cur = next
	}
	return query.Result{Type: q.Type, EndNode: cur}, nil
}

func (p *ProcessorServer) execReach(ctx context.Context, q query.Query, sc *execScratch) (query.Result, error) {
	if q.Node == q.Target {
		return query.Result{Type: q.Type, Reachable: true}, nil
	}
	if q.Hops <= 0 {
		return query.Result{Type: q.Type, Reachable: false}, nil
	}
	fVis, bVis := sc.visA, sc.visB
	fVis[q.Node] = struct{}{}
	bVis[q.Target] = struct{}{}
	fFront := append(sc.front[:0], q.Node)
	bFront := append(sc.front2[:0], q.Target)
	spare := sc.spare
	reachable := false
	for levels := 0; levels < q.Hops && !reachable && len(fFront) > 0 && len(bFront) > 0; levels++ {
		forward := len(fFront) <= len(bFront)
		front, dir := fFront, graph.Out
		mine, other := fVis, bVis
		if !forward {
			front, dir = bFront, graph.In
			mine, other = bVis, fVis
		}
		clear(sc.recs)
		if err := p.fetchInto(ctx, front, sc.recs, &sc.miss); err != nil {
			return query.Result{}, err
		}
		next := spare[:0]
		for _, u := range front {
			rec, ok := sc.recs[u]
			if !ok {
				continue
			}
			forEdge(rec, dir, func(v graph.NodeID) {
				if _, hit := other[v]; hit {
					reachable = true
				}
				if _, seen := mine[v]; !seen {
					mine[v] = struct{}{}
					next = append(next, v)
				}
			})
		}
		if forward {
			spare, fFront = fFront, next
		} else {
			spare, bFront = bFront, next
		}
	}
	sc.front, sc.front2, sc.spare = fFront, bFront, spare
	return query.Result{Type: q.Type, Reachable: reachable}, nil
}

func forEdge(rec gstore.Record, dir graph.Direction, fn func(graph.NodeID)) {
	if dir == graph.Out || dir == graph.Both {
		for _, e := range rec.Out {
			fn(e.To)
		}
	}
	if dir == graph.In || dir == graph.Both {
		for _, e := range rec.In {
			fn(e.To)
		}
	}
}
