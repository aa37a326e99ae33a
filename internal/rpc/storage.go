package rpc

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/hash"
	"repro/internal/kvstore"
	"repro/internal/query"
	"repro/internal/topology"
)

// StorageServer is one shard of the networked storage tier: an in-memory
// key→value map served over TCP. Which servers own which key is decided
// by the clients (murmur hash when unreplicated, rendezvous hashing over
// the shard list with R replicas otherwise — as RAMCloud's coordinator
// would), so servers are completely independent. A shard can announce
// itself to a running router's storage view with Register (groutingd
// -join for the storage role) and leave it cleanly with Deregister.
type StorageServer struct {
	ln       net.Listener
	ct       connTracker
	mu       sync.RWMutex
	data     map[uint64][]byte
	requests atomic.Int64
	keys     atomic.Int64

	// Durability (nil wal = in-memory only). The WAL and snapshot use the
	// same on-disk format as the in-process tier (internal/kvstore): every
	// put is logged before it is acked, and every snapEvery records the
	// shard compacts map + log into an atomic snapshot and truncates the
	// WAL. All fields below mu are guarded by it (writes take the write
	// lock); durVer is atomic so Register and Stats can read it cheaply.
	wal             *kvstore.WAL
	walPath         string
	snapPath        string
	snapEvery       int
	sinceSnap       int
	snapshots       int64
	replayedRecords int64
	replayedBytes   int64
	durVer          atomic.Uint64 // monotonic durable record counter

	regMu      sync.Mutex // guards the registration below
	routerAddr string     // router this shard registered with ("" = none)
	advertise  string     // address announced to the router
	slot       int        // slot the router assigned
}

// NewStorageServer starts a storage shard on addr (use "127.0.0.1:0" for
// an ephemeral port) and begins serving in the background.
func NewStorageServer(addr string) (*StorageServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: storage listen: %w", err)
	}
	s := &StorageServer{ln: ln, data: make(map[uint64][]byte), slot: -1}
	go serve(ln, s.handle, &s.ct)
	return s, nil
}

// NewStorageServerDurable starts a storage shard whose writes survive a
// crash: every put is appended to a WAL under dir before it is acked, and
// the shard compacts into a snapshot periodically. Starting over a
// directory left by a previous (even killed) process replays snapshot +
// WAL first, so the shard comes back warm with every acked write. With
// fsync true each append is fsynced (machine-crash durable); false keeps
// a single write syscall per write request — one per OpPut, one per whole
// OpMultiPut batch (process-death durable).
func NewStorageServerDurable(addr, dir string, fsync bool) (*StorageServer, error) {
	if dir == "" {
		return NewStorageServer(addr)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rpc: storage wal dir: %w", err)
	}
	s := &StorageServer{
		data:      make(map[uint64][]byte),
		slot:      -1,
		walPath:   filepath.Join(dir, "shard.wal"),
		snapPath:  filepath.Join(dir, "shard.snap"),
		snapEvery: kvstore.DefaultSnapshotEvery,
	}
	var maxVer uint64
	apply := func(op kvstore.WALOp, key, ver uint64, val []byte) {
		switch op {
		case kvstore.WALPut:
			cp := make([]byte, len(val))
			copy(cp, val)
			s.data[key] = cp
		case kvstore.WALTomb, kvstore.WALDrop:
			delete(s.data, key)
		}
		if ver > maxVer {
			maxVer = ver
		}
		s.replayedRecords++
	}
	snapVer, snapBytes, err := kvstore.LoadSnapshot(s.snapPath, apply)
	if err != nil {
		return nil, fmt.Errorf("rpc: storage snapshot: %w", err)
	}
	if snapVer > maxVer {
		maxVer = snapVer
	}
	if snapBytes > 0 {
		s.snapshots = 1
		s.replayedBytes += snapBytes
	}
	wal, err := kvstore.OpenWAL(s.walPath, fsync, apply)
	if err != nil {
		return nil, fmt.Errorf("rpc: storage wal: %w", err)
	}
	walBytes, _, _ := wal.Stats()
	s.replayedBytes += walBytes
	s.wal = wal
	s.durVer.Store(maxVer)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("rpc: storage listen: %w", err)
	}
	s.ln = ln
	go serve(ln, s.handle, &s.ct)
	return s, nil
}

// Addr returns the server's listen address.
func (s *StorageServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server, severing live connections — the crash
// semantics replica failover is built for. A durable shard's WAL fd is
// abandoned without a final fsync (records already written survive the
// process; callers wanting machine-crash safety call SyncWAL first — the
// daemon's graceful-shutdown path does).
func (s *StorageServer) Close() error {
	err := s.ln.Close()
	s.ct.closeAll()
	s.mu.Lock()
	if s.wal != nil {
		s.wal.Abandon()
		s.wal = nil
	}
	s.mu.Unlock()
	return err
}

// SetSnapshotEvery overrides how many WAL records the shard accumulates
// before compacting into a snapshot (n <= 0 restores the default). No-op
// without durability.
func (s *StorageServer) SetSnapshotEvery(n int) {
	if n <= 0 {
		n = kvstore.DefaultSnapshotEvery
	}
	s.mu.Lock()
	s.snapEvery = n
	s.mu.Unlock()
}

// SyncWAL fsyncs the shard's WAL so every acked write is durable against
// machine crash, not just process death. No-op without durability.
func (s *StorageServer) SyncWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// Register announces this shard to a running router's storage view
// (OpJoin with the storage tier): the router dials back to verify it,
// admits it at a new storage epoch, and reports it under -topology /
// Stats. advertise defaults to the listen address. The returned slot is
// the shard's stable storage-slot id.
func (s *StorageServer) Register(ctx context.Context, routerAddr, advertise string) (int, error) {
	if advertise == "" {
		advertise = s.Addr()
	}
	cn, err := DialContext(ctx, routerAddr)
	if err != nil {
		return 0, err
	}
	defer cn.Close()
	resp, err := cn.Call(ctx, &Request{Op: OpJoin, Addr: advertise, Tier: "storage", Version: s.durVer.Load()})
	if err != nil {
		return 0, err
	}
	s.regMu.Lock()
	s.routerAddr, s.advertise, s.slot = routerAddr, advertise, resp.Proc
	s.regMu.Unlock()
	return resp.Proc, nil
}

// Deregister removes this shard from the router's storage view (OpDrain,
// storage tier). Over TCP this is membership-only: the shard's replicas
// are not copied off — reads of keys it held fail over to their other
// replicas, so drain a shard only when the replication factor covers it.
// No-op when the shard never registered.
func (s *StorageServer) Deregister(ctx context.Context) error {
	s.regMu.Lock()
	routerAddr, advertise := s.routerAddr, s.advertise
	s.regMu.Unlock()
	if routerAddr == "" {
		return nil
	}
	cn, err := DialContext(ctx, routerAddr)
	if err != nil {
		return err
	}
	defer cn.Close()
	if _, err := cn.Call(ctx, &Request{Op: OpDrain, Addr: advertise, Tier: "storage"}); err != nil {
		return err
	}
	s.regMu.Lock()
	if s.routerAddr == routerAddr {
		s.routerAddr = ""
	}
	s.regMu.Unlock()
	return nil
}

// RegisteredSlot returns the storage slot the router assigned at
// Register, or -1 when the shard never registered (or has deregistered).
func (s *StorageServer) RegisteredSlot() int {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.routerAddr == "" {
		return -1
	}
	return s.slot
}

func (s *StorageServer) handle(_ context.Context, req *Request) Response {
	s.requests.Add(1)
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpGet:
		s.mu.RLock()
		v, ok := s.data[req.Key]
		s.mu.RUnlock()
		s.keys.Add(1)
		return Response{OK: true, Value: v, Found: ok}
	case OpMultiGet:
		resp := Response{OK: true, Values: make([][]byte, len(req.Keys)), Founds: make([]bool, len(req.Keys))}
		s.mu.RLock()
		for i, k := range req.Keys {
			resp.Values[i], resp.Founds[i] = s.data[k]
		}
		s.mu.RUnlock()
		s.keys.Add(int64(len(req.Keys)))
		return resp
	case OpPut:
		return s.put([]uint64{req.Key}, [][]byte{bytes.Clone(req.Value)})
	case OpMultiPut:
		if len(req.Values) != len(req.Keys) {
			return errorResponse(fmt.Errorf("%w: multiput carries %d keys but %d values", query.ErrBadQuery, len(req.Keys), len(req.Values)))
		}
		// Decoded values are fresh allocations, so the batch is stored as is.
		return s.put(req.Keys, req.Values)
	case OpDrop:
		// The tombstone half of a copy-then-drop migration: the key leaves
		// the shard, and on a durable shard the drop is WAL-logged so a
		// restart replays it and cannot resurrect the migrated-away copy.
		s.mu.Lock()
		_, found := s.data[req.Key]
		var err error
		if found {
			err = s.commitLocked(kvstore.WALDrop, []uint64{req.Key}, nil)
		}
		s.mu.Unlock()
		if err != nil {
			return errorResponse(fmt.Errorf("storage wal: %w", err))
		}
		return Response{OK: true, Found: found}
	case OpStats:
		st := s.Stats()
		return Response{OK: true, Stats: &st}
	}
	return errorResponse(fmt.Errorf("storage: unknown op %q", req.Op))
}

// put stores vals[i] under keys[i] for the whole batch, retaining the
// value slices: OpPut and OpMultiPut share this one write path.
func (s *StorageServer) put(keys []uint64, vals [][]byte) Response {
	s.mu.Lock()
	err := s.commitLocked(kvstore.WALPut, keys, vals)
	s.mu.Unlock()
	if err != nil {
		return errorResponse(fmt.Errorf("storage wal: %w", err))
	}
	return Response{OK: true}
}

// commitLocked makes a batch of writes (puts, or drops with vals nil)
// durable and then visible. On a durable shard the batch is appended to
// the WAL with one write, one durable version per record; only once that
// succeeded is it applied to the map, so a failed append leaves no write
// visible that was never acked. The shard then compacts into a snapshot
// once enough records have accumulated. Caller holds s.mu (write).
func (s *StorageServer) commitLocked(op kvstore.WALOp, keys []uint64, vals [][]byte) error {
	if s.wal != nil {
		first := s.durVer.Load() + 1
		if err := s.wal.AppendBatch(op, keys, first, vals); err != nil {
			return err
		}
		s.durVer.Store(first + uint64(len(keys)) - 1)
	}
	for i, k := range keys {
		if op == kvstore.WALPut {
			s.data[k] = vals[i]
		} else {
			delete(s.data, k)
		}
	}
	if s.wal == nil {
		return nil
	}
	s.sinceSnap += len(keys)
	if s.sinceSnap < s.snapEvery {
		return nil
	}
	if _, err := kvstore.WriteSnapshot(s.snapPath, s.durVer.Load(), func(emit func(op kvstore.WALOp, key, ver uint64, val []byte)) {
		for k, v := range s.data {
			emit(kvstore.WALPut, k, 0, v)
		}
	}); err != nil {
		return err
	}
	if err := s.wal.Reset(); err != nil {
		return err
	}
	s.sinceSnap = 0
	s.snapshots++
	return nil
}

// Stats returns the shard's counters (request total, key reads served,
// resident keys) plus its durability counters when it runs a WAL.
func (s *StorageServer) Stats() Stats {
	s.mu.RLock()
	n := len(s.data)
	wal := s.wal
	snapshots := s.snapshots
	replayedRecords := s.replayedRecords
	replayedBytes := s.replayedBytes
	s.mu.RUnlock()
	st := Stats{
		Role:     "storage",
		Requests: s.requests.Load(),
		Reads:    s.keys.Load(),
		Keys:     int64(n),
	}
	if wal != nil {
		walBytes, walRecords, _ := wal.Stats()
		st.Durable = "fresh"
		if replayedRecords > 0 {
			st.Durable = "warm"
		}
		st.WALBytes = walBytes
		st.WALRecords = walRecords
		st.Snapshots = snapshots
		st.DurableVersion = s.durVer.Load()
		st.ReplayedBytes = replayedBytes
	}
	return st
}

// Down-shard probe schedule: the first re-ping comes probeBase after a
// shard is marked down (a restarted shard rejoins the read path fast),
// then the per-shard interval doubles up to probeMax with jitter, so a
// long-dead shard is not hammered in lockstep by every client. Each
// ping's timeout is the shard's current interval.
const (
	probeBase = 50 * time.Millisecond
	probeMax  = 2 * time.Second
)

// probeState tracks one down shard's re-ping schedule; the zero value
// means the shard is healthy.
type probeState struct {
	interval time.Duration // current backoff interval
	next     time.Time     // earliest next probe
}

// StorageClient shards keys over a set of storage servers, over one
// connection pool per shard. Unreplicated (replicas == 1) placement is
// the same murmur hash the legacy in-process tier uses; with replicas
// >= 2 every key lives on R shards placed by rendezvous hashing over the
// shard list, writes go to every replica, and reads prefer the
// highest-scored healthy replica with transparent failover: a shard that
// fails a call is marked down (per-replica health), its keys retry on
// their next replica, and a background probe revives it when it answers
// pings again.
type StorageClient struct {
	pools    []*Pool
	replicas int
	slots    []int // 0..n-1, the rendezvous placement domain

	down      []atomic.Bool
	failovers atomic.Int64

	// overrides pins keys migrated away from their rendezvous placement to
	// their new replica set (primary first). The router owns the
	// authoritative table and pushes complete replacements (OpPlacement);
	// entries naming slots this client does not know are ignored, so an
	// older client degrades to baseline placement instead of misreading.
	ovMu      sync.RWMutex
	overrides map[uint64][]int

	probeStop chan struct{}
	closeOnce sync.Once
}

// DialStorage connects to every storage shard unreplicated, verifying
// each is reachable.
func DialStorage(addrs []string) (*StorageClient, error) {
	return DialStorageReplicated(addrs, 1)
}

// DialStorageReplicated connects to every storage shard with the given
// replication factor, verifying each shard is reachable. The loader and
// every processor of a deployment must agree on the factor — placement is
// client-side, exactly like the hash placement it generalises.
func DialStorageReplicated(addrs []string, replicas int) (*StorageClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("rpc: no storage servers")
	}
	if replicas < 1 || replicas > topology.MaxReplicas {
		return nil, fmt.Errorf("rpc: storage replicas = %d outside [1,%d]", replicas, topology.MaxReplicas)
	}
	if replicas > len(addrs) {
		return nil, fmt.Errorf("rpc: %d storage replicas need at least that many shards, have %d", replicas, len(addrs))
	}
	sc := &StorageClient{replicas: replicas, probeStop: make(chan struct{})}
	for i, a := range addrs {
		p := NewPool(a, 0)
		if err := p.Ping(context.Background()); err != nil {
			sc.Close()
			p.Close()
			return nil, err
		}
		sc.pools = append(sc.pools, p)
		sc.slots = append(sc.slots, i)
	}
	sc.down = make([]atomic.Bool, len(sc.pools))
	// The probe runs in every mode: even unreplicated clients mark a
	// shard down after a failure, and only the probe clears the flag when
	// the shard answers again.
	go sc.probeLoop()
	return sc, nil
}

// Close closes every shard pool and stops the health probe.
func (sc *StorageClient) Close() {
	sc.closeOnce.Do(func() { close(sc.probeStop) })
	for _, p := range sc.pools {
		if p != nil {
			p.Close()
		}
	}
}

// Replicas returns the client's replication factor.
func (sc *StorageClient) Replicas() int { return sc.replicas }

// Failovers returns how many times a shard call failed and its keys were
// retried on another replica — the client-side health signal.
func (sc *StorageClient) Failovers() int64 { return sc.failovers.Load() }

// probeLoop re-pings down shards so they rejoin the read path once they
// answer again. Each down shard backs off independently: probeBase on
// first detection, doubling to probeMax, with jitter spreading probes of
// shards that died together. A successful ping clears both the health
// flag and the backoff. Close cancels the loop's context, so even an
// in-flight ping unblocks immediately.
func (sc *StorageClient) probeLoop() {
	root, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-sc.probeStop
		cancel()
	}()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	state := make([]probeState, len(sc.pools))
	t := time.NewTimer(probeBase)
	defer t.Stop()
	for {
		select {
		case <-sc.probeStop:
			return
		case <-t.C:
		}
		now := time.Now()
		// Wake at least every probeBase to notice newly-down shards (a
		// failed call flips the flag without signalling this loop).
		wake := now.Add(probeBase)
		for i := range sc.down {
			if !sc.down[i].Load() {
				state[i] = probeState{}
				continue
			}
			if state[i].interval == 0 {
				state[i] = probeState{interval: probeBase, next: now}
			}
			if state[i].next.After(now) {
				if state[i].next.Before(wake) {
					wake = state[i].next
				}
				continue
			}
			ctx, pcancel := context.WithTimeout(root, state[i].interval)
			err := sc.pools[i].Ping(ctx)
			pcancel()
			if err == nil {
				sc.down[i].Store(false)
				state[i] = probeState{}
				continue
			}
			iv := state[i].interval * 2
			if iv > probeMax {
				iv = probeMax
			}
			// Jittered next probe in [iv/2, 3iv/2): capped exponential
			// backoff without client lockstep.
			state[i] = probeState{interval: iv, next: time.Now().Add(iv/2 + time.Duration(rng.Int63n(int64(iv))))}
			if state[i].next.Before(wake) {
				wake = state[i].next
			}
		}
		d := time.Until(wake)
		if d < probeBase/4 {
			d = probeBase / 4
		}
		t.Reset(d)
	}
}

// markDown records a failed shard call.
func (sc *StorageClient) markDown(shard int) {
	sc.failovers.Add(1)
	sc.down[shard].Store(true)
}

// SetOverrides replaces the client's placement-override table. The slices
// in the map are retained, not copied — callers hand over ownership.
func (sc *StorageClient) SetOverrides(ov map[uint64][]int) {
	sc.ovMu.Lock()
	sc.overrides = ov
	sc.ovMu.Unlock()
}

// overrideFor returns key's pinned placement, or nil. A pin naming a slot
// outside this client's shard list is ignored wholesale.
func (sc *StorageClient) overrideFor(key uint64) []int {
	sc.ovMu.RLock()
	pl := sc.overrides[key]
	sc.ovMu.RUnlock()
	for _, slot := range pl {
		if slot < 0 || slot >= len(sc.pools) {
			return nil
		}
	}
	return pl
}

// placement appends key's replica shards (primary first) to dst: the
// override pin when migration moved the key, rendezvous placement
// otherwise.
func (sc *StorageClient) placement(key uint64, dst []int) []int {
	if ov := sc.overrideFor(key); len(ov) > 0 {
		return append(dst[:0], ov...)
	}
	if sc.replicas <= 1 {
		return append(dst[:0], int(hash.Key64(key, 0)%uint64(len(sc.pools))))
	}
	return topology.RendezvousN(key, sc.slots, sc.replicas, dst)
}

// shardFor returns the shard a read of key prefers.
func (sc *StorageClient) shardFor(key uint64) int {
	var buf [topology.MaxReplicas]int
	return sc.placement(key, buf[:0])[0]
}

// Put stores one encoded record on every replica of its placement set.
// Shards marked down are skipped on the first pass (their copy is
// repaired by reloading) — but the flag is advisory, so if no replica
// looked up, every placement shard is tried anyway. The write fails only
// when no replica accepted it.
func (sc *StorageClient) Put(ctx context.Context, key uint64, value []byte) error {
	var buf [topology.MaxReplicas]int
	pl := sc.placement(key, buf[:0])
	live := sc.liveMask(pl)
	wrote, err := sc.putReplicas(ctx, key, value, pl, live)
	if wrote == 0 {
		var rerr error
		wrote, rerr = sc.putReplicas(ctx, key, value, pl, ^live)
		if err == nil {
			err = rerr
		}
	}
	if wrote > 0 {
		return nil
	}
	if err != nil {
		return err
	}
	return &remoteError{addr: "storage", msg: fmt.Sprintf("no live replica accepted key %d", key), kind: query.ErrUnavailable}
}

// liveMask returns the bitmask over pl's indices of the shards not marked
// down.
func (sc *StorageClient) liveMask(pl []int) uint8 {
	var mask uint8
	for i, shard := range pl {
		if !sc.down[shard].Load() {
			mask |= 1 << i
		}
	}
	return mask
}

// putReplicas writes value under key to every placement shard pl[i] whose
// bit i is set in mask, one OpPut each, and reports how many accepted it
// and the first failure. A failing shard is marked down unless the
// caller's own context ended.
func (sc *StorageClient) putReplicas(ctx context.Context, key uint64, value []byte, pl []int, mask uint8) (int, error) {
	wrote := 0
	var firstErr error
	for i, shard := range pl {
		if mask&(1<<i) == 0 {
			continue
		}
		if _, err := sc.pools[shard].Call(ctx, &Request{Op: OpPut, Key: key, Value: value}); err != nil {
			// Don't poison the health flags with our own cancellation.
			if ctx.Err() == nil {
				sc.markDown(shard)
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		wrote++
	}
	return wrote, firstErr
}

// MultiGet fetches the records for ids, grouping keys by their preferred
// replica and issuing the per-shard multigets concurrently (the networked
// analogue of the engine's batched frontier fetches). A shard that fails
// mid-call is marked down and its keys transparently retry on their next
// replica; only a key with no answering replica left fails the call.
func (sc *StorageClient) MultiGet(ctx context.Context, ids []graph.NodeID) (map[graph.NodeID]gstore.Record, error) {
	out := make(map[graph.NodeID]gstore.Record, len(ids))
	// tried is a bitmask over each key's placement indices: a key is
	// exhausted only once every replica has actually been contacted —
	// down flags are advisory and must never skip a replica for good.
	tried := make(map[graph.NodeID]uint8, len(ids))
	pending := ids
	var firstErr error
	for round := 0; len(pending) > 0 && round <= sc.replicas; round++ {
		groups := make(map[int][]graph.NodeID)
		chosen := make(map[graph.NodeID]int, len(pending))
		var buf [topology.MaxReplicas]int
		for _, id := range pending {
			pl := sc.placement(uint64(id), buf[:0])
			// Prefer the first untried healthy replica, falling back to
			// the first untried one of any health.
			pick := -1
			for j := range pl {
				if tried[id]&(1<<j) != 0 {
					continue
				}
				if pick < 0 {
					pick = j
				}
				if !sc.down[pl[j]].Load() {
					pick = j
					break
				}
			}
			if pick < 0 {
				if firstErr == nil {
					firstErr = &remoteError{addr: "storage", msg: fmt.Sprintf("key %d: every replica failed", id), kind: query.ErrUnavailable}
				}
				continue
			}
			chosen[id] = pick
			groups[pl[pick]] = append(groups[pl[pick]], id)
		}
		type shardResult struct {
			shard int
			ids   []graph.NodeID
			resp  Response
			err   error
		}
		results := make(chan shardResult, len(groups))
		for shard, gids := range groups {
			go func(shard int, gids []graph.NodeID) {
				keys := make([]uint64, len(gids))
				for i, id := range gids {
					keys[i] = uint64(id)
				}
				resp, err := sc.pools[shard].Call(ctx, &Request{Op: OpMultiGet, Keys: keys})
				results <- shardResult{shard: shard, ids: gids, resp: resp, err: err}
			}(shard, gids)
		}
		var retry []graph.NodeID
		for range groups {
			r := <-results
			if r.err != nil {
				// The caller gave up (ctx done) — don't burn the health
				// flags or retries on our own cancellation.
				if ctx.Err() != nil {
					if firstErr == nil {
						firstErr = r.err
					}
					continue
				}
				sc.markDown(r.shard)
				for _, id := range r.ids {
					tried[id] |= 1 << chosen[id]
				}
				retry = append(retry, r.ids...)
				continue
			}
			for i, id := range r.ids {
				if !r.resp.Founds[i] {
					continue
				}
				rec, err := gstore.Decode(graph.NodeID(id), r.resp.Values[i])
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				out[id] = rec
			}
		}
		pending = retry
	}
	return out, firstErr
}

// Bulk-load batching: LoadGraph streams each shard its records as
// OpMultiPut batches of at most loadBatchBytes of values — far below
// maxFrame, so one batch holds a shard's write lock only briefly — with at
// most loadDepth batches in flight per shard, which bounds loader memory.
const (
	loadBatchBytes = 256 << 10
	loadDepth      = 4
	// Encode chunks: a fresh loadArenaChunk once less than loadArenaSlack
	// is left (a larger record just grows its chunk).
	loadArenaChunk = 64 << 10
	loadArenaSlack = 4 << 10
)

// loadBatch is one OpMultiPut under construction for one shard.
type loadBatch struct {
	keys  []uint64
	vals  [][]byte
	bytes int
}

// LoadGraph bulk-loads every live node of g across the shards (all
// replicas of each key), streaming per-shard OpMultiPut batches over the
// pipelined pools. It keeps Put's per-key contract: down flags are
// advisory, and a key fails the load only when no replica of its
// placement set accepted it. Keys whose every batch failed are retried,
// one OpPut per replica, on the placement shards they were not sent to.
func (sc *StorageClient) LoadGraph(ctx context.Context, g *graph.Graph) error {
	// sent[id] is the bitmask of placement indices id's record went to;
	// only the dispatch loop writes it, and only after wg.Wait is it read.
	sent := make([]uint8, g.MaxNodeID())
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards failed and firstErr
		failed   []uint64   // one entry per key per failed batch
		firstErr error
	)
	slots := make([]chan struct{}, len(sc.pools))
	for i := range slots {
		slots[i] = make(chan struct{}, loadDepth)
	}
	pending := make([]loadBatch, len(sc.pools))
	flush := func(shard int) error {
		b := pending[shard]
		pending[shard] = loadBatch{}
		if len(b.keys) == 0 {
			return nil
		}
		select {
		case slots[shard] <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		wg.Add(1)
		go func() {
			defer func() {
				<-slots[shard]
				wg.Done()
			}()
			_, err := sc.pools[shard].Call(ctx, &Request{Op: OpMultiPut, Keys: b.keys, Values: b.vals})
			if err == nil {
				return
			}
			if ctx.Err() == nil {
				sc.markDown(shard)
			}
			mu.Lock()
			failed = append(failed, b.keys...)
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
		return nil
	}

	var dispatchErr error
	var plBuf [topology.MaxReplicas]int
	// Records are encoded back to back into shared chunks; a value stays
	// valid after its chunk is replaced, and its batches keep it alive.
	var arena []byte
	for id := graph.NodeID(0); id < g.MaxNodeID() && dispatchErr == nil; id++ {
		if !g.Exists(id) {
			continue
		}
		if cap(arena)-len(arena) < loadArenaSlack {
			arena = make([]byte, 0, loadArenaChunk)
		}
		start := len(arena)
		arena = gstore.Encode(arena, gstore.RecordOf(g, id))
		val := arena[start:len(arena):len(arena)]
		pl := sc.placement(uint64(id), plBuf[:0])
		mask := sc.liveMask(pl)
		if mask == 0 {
			mask = 1<<len(pl) - 1 // every replica looks down: try them all
		}
		sent[id] = mask
		for i, shard := range pl {
			if mask&(1<<i) == 0 {
				continue
			}
			b := &pending[shard]
			b.keys = append(b.keys, uint64(id))
			b.vals = append(b.vals, val)
			b.bytes += len(val)
			if b.bytes >= loadBatchBytes {
				if dispatchErr = flush(shard); dispatchErr != nil {
					break
				}
			}
		}
	}
	for shard := range pending {
		if dispatchErr == nil {
			dispatchErr = flush(shard)
		}
	}
	wg.Wait()
	if dispatchErr != nil {
		return dispatchErr
	}
	if len(failed) == 0 {
		return nil
	}
	if ctx.Err() != nil {
		return firstErr
	}

	// A key is lost only if every batch it rode in failed; retry those on
	// the replicas the first pass skipped as down.
	fails := make(map[uint64]int, len(failed))
	for _, k := range failed {
		fails[k]++
	}
	for k, n := range fails {
		if n < bits.OnesCount8(sent[k]) {
			continue // another replica accepted it
		}
		pl := sc.placement(k, plBuf[:0])
		val := gstore.Encode(nil, gstore.RecordOf(g, graph.NodeID(k)))
		wrote, err := sc.putReplicas(ctx, k, val, pl, ^sent[k])
		if wrote > 0 {
			continue
		}
		if err == nil {
			err = firstErr
		}
		return err
	}
	return nil
}
