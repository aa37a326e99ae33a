package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	grouting "repro"
)

// counters is one reading of every layer-public counter the untraced
// per-layer metrics are differences of.
type counters struct {
	// Processor caches, summed (ProcessorServer.Stats).
	hits, misses, evictions int64
	cacheBytes              int64
	// Storage shards (StorageServer.Stats), summed: keys read, the live
	// WAL's size and the snapshots taken.
	gets                int64
	walBytes, snapshots int64
	// Router (Client.Stats): queries dispatched per processor, and steals.
	executed []int64
	stolen   int64
	// Process: CPU seconds (getrusage) and heap allocations.
	cpu    float64
	allocs uint64
}

func readCounters(ctx context.Context, c *cluster) (counters, error) {
	var k counters
	for _, p := range c.procs {
		st := p.Stats()
		if st.Cache == nil {
			return k, fmt.Errorf("processor stats carry no cache counters")
		}
		k.hits += st.Cache.Hits
		k.misses += st.Cache.Misses
		k.evictions += st.Cache.Evictions
		k.cacheBytes += st.Cache.CurrentBytes
	}
	k.gets, k.walBytes, k.snapshots = storageCounters(c.storage)
	snap, err := c.client.Stats(ctx)
	if err != nil {
		return k, fmt.Errorf("router stats: %w", err)
	}
	for _, p := range snap.PerProc {
		k.executed = append(k.executed, p.Executed)
	}
	k.stolen = snap.Stolen
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return k, fmt.Errorf("getrusage: %w", err)
	}
	k.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	k.allocs = s[0].Value.Uint64()
	return k, nil
}

// goCPU returns the runtime's estimates of the CPU seconds spent in the
// garbage collector and in Go code overall (GC, user code, scavenger).
// The runtime settles the GC share at the end of each cycle, so a
// difference of two readings is only meaningful over several cycles.
func goCPU() (gc, all float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/cpu/classes/scavenge/total:cpu-seconds"},
	}
	metrics.Read(s)
	gc = s[0].Value.Float64()
	return gc, gc + s[1].Value.Float64() + s[2].Value.Float64()
}

// storageCounters sums the shards' keys read, live WAL bytes and
// snapshots taken.
func storageCounters(storage []*grouting.StorageServer) (gets, walBytes, snapshots int64) {
	for _, s := range storage {
		st := s.Stats()
		gets += st.Reads
		walBytes += st.WALBytes
		snapshots += st.Snapshots
	}
	return gets, walBytes, snapshots
}

// walBytesSince is how many WAL bytes the shards appended since before. A
// snapshot truncates the live log, so none may fall in between; set-up
// turns compaction off once the shards are loaded.
func (k counters) walBytesSince(before counters) (float64, error) {
	if k.snapshots != before.snapshots {
		return 0, fmt.Errorf("a WAL snapshot fell inside a measured window")
	}
	return float64(k.walBytes - before.walBytes), nil
}

// imbalance is the busiest processor's share of the dispatched work over
// the mean share.
func imbalance(before, after []int64) float64 {
	var total, most int64
	for i := range after {
		d := after[i] - before[i]
		total += d
		most = max(most, d)
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(after)) / float64(total)
}

// pickNanos times the router's routing decision directly: it builds the
// workload's strategy the way the router does and returns the mean time of
// one Strategy.Pick plus the Observe the router follows it with, over the
// read stream.
func pickNanos(in *inputs) (float64, error) {
	strat, err := grouting.NewStrategy(in.w.policy, grouting.StrategyResources{
		Procs: numProcs, Seed: datasetSeed, LoadFactor: 20, Alpha: 0.5, Graph: in.g, Embedding: in.coords,
	})
	if err != nil {
		return 0, fmt.Errorf("build strategy: %w", err)
	}
	loads := make([]int, numProcs)
	const passes = 5
	t := time.Now()
	for p := 0; p < passes; p++ {
		for _, q := range in.reads {
			strat.Observe(q, strat.Pick(q, loads))
		}
	}
	return float64(time.Since(t).Nanoseconds()) / float64(passes*len(in.reads)), nil
}

// heapMB returns the live heap in MiB after two forced collections (the
// second clears what sync.Pools kept through the first).
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
