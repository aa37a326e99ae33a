package main

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	grouting "repro"
)

// Every workload serves the same deployment shape: WebGraph at scale 1.0
// (60,000 nodes, 720,000 edges) on 3 processors over 2 storage shards.
// The dataset, and the routing preprocessing over it, come from a fixed
// seed; a run's --seed draws the traffic: hotspots, queries and writes.
// Runs with different seeds then differ in what users ask, not in the
// database and its embedding, whose per-seed quirks (how evenly the
// embedding spreads load) would otherwise swamp a change's effect.
const (
	datasetScale = 1.0
	datasetSeed  = 1
	numProcs     = 3
	numShards    = 2
	// setupRepeats is how many times a run builds the whole cluster; the
	// set-up metrics are the median of these builds.
	setupRepeats = 3
	// embedLandmarks, embedSeparation and embedDims are the landmark and
	// embedding parameters the networked router uses for smart routing,
	// so the benchmark's embedding is the one the router would build.
	embedLandmarks  = 32
	embedSeparation = 2
	embedDims       = 8
)

// workload is one traffic mix with the deployment it runs on.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why        string
	policy     grouting.Policy
	replicas   int
	durable    bool // shards keep a WAL (fsync off)
	cacheBytes int64
	// The read stream: hotspots × perHotspot queries of the given classes,
	// cycled in order.
	hotspots   int
	perHotspot int
	types      []grouting.QueryType
	// writeEvery makes every writeEvery-th operation a write (0 = reads
	// only).
	writeEvery int
	// slo is the read p99 a qps_at_slo probe must stay within; refRate the
	// fixed offered rate (ops/s) p50, p99 and cpu_us_per_op are taken at,
	// over a window of half --seconds or refOps operations, whichever is
	// longer, after warmOps operations of warm-up at that rate.
	slo     time.Duration
	refRate float64
	refOps  int
	warmOps int
	// traceOps is how many operations the traced run warms up on, and then
	// measures.
	traceOps int
}

var (
	classicTypes = []grouting.QueryType{grouting.NeighborAgg, grouting.RandomWalk, grouting.Reachability}
	// allTypes is the six-class mix, in the order the hotspot generator
	// cycles it.
	allTypes = []grouting.QueryType{grouting.NeighborAgg, grouting.PatternMatch, grouting.RandomWalk,
		grouting.KNearest, grouting.BoundedReach, grouting.Reachability}
)

// workloads are the ones BENCHMARK.json lists, in its order.
var workloads = []workload{
	{
		name: "hot",
		why: "cache-resident, so rpc, router and compute carry the time; WebGraph 60k nodes; 1k classic h=2 queries " +
			"(~8MB) vs 3x64MB caches; hash; R=1; no WAL; SLO p99 25ms; ref 2000/s; seed --seed",
		policy: grouting.PolicyHash, replicas: 1, cacheBytes: 64 << 20,
		hotspots: 100, perHotspot: 10, types: classicTypes,
		slo: 25 * time.Millisecond, refRate: 2000, refOps: 16000, warmOps: 4000, traceOps: 1000,
	},
	{
		name: "spill",
		why: "cache-bound, so storage rounds, replica reads and routing carry the time; WebGraph 60k; 20k 6-class " +
			"queries (30-45MB) vs 3x4MB caches; embed; R=2; WAL, no fsync; SLO p99 100ms; ref 500/s; seed --seed",
		policy: grouting.PolicyEmbed, replicas: 2, durable: true, cacheBytes: 4 << 20,
		hotspots: 4000, perHotspot: 5, types: allTypes,
		slo: 100 * time.Millisecond, refRate: 500, refOps: 6000, warmOps: 2000, traceOps: 600,
	},
}

// writeMix runs hot's reads with one write in ten on durable shards. It
// is not in BENCHMARK.json: a read racing a write can leave a processor
// caching the pre-write record (ProcessorServer.fetchInto caches what a
// storage fetch returned after releasing its lock, so an eviction that
// lands during the fetch is lost), and the read-back after the run then
// fails. It belongs in the list once that is fixed.
var writeMix = workload{
	name:   "write-mix",
	policy: grouting.PolicyHash, replicas: 2, durable: true, cacheBytes: 64 << 20,
	hotspots: 100, perHotspot: 10, types: classicTypes, writeEvery: 10,
	slo: 50 * time.Millisecond, refRate: 2000, refOps: 8000, warmOps: 4000, traceOps: 1000,
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range append(workloads, writeMix) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have hot, spill, write-mix)", name)
}

// inputs is everything a run builds before any timing starts: the graph,
// the embedding, the read stream with its oracle answers, and the write
// plan.
type inputs struct {
	w    workload
	seed int64
	// g is the graph the cluster serves; it is never mutated.
	g     *grouting.Graph
	reads []grouting.Query
	want  []grouting.Result
	// coords is the learned embedding, which routes spill and ranks
	// k-nearest answers; the router is handed the same table. It is nil
	// when the run needs neither (the read stream has no k-nearest
	// queries and there is no traced run).
	coords *grouting.Embedding
	// embedS is how long the embed layer took to learn coords.
	embedS float64
	plan   *writePlan
}

// prepare builds a run's inputs. It learns the embedding when the
// workload routes by it, reads k-nearest queries, or is traced.
func prepare(w workload, seed int64, trace bool) (*inputs, error) {
	in := &inputs{
		w: w, seed: seed,
		g: grouting.GenerateDataset(grouting.WebGraph, datasetScale, datasetSeed),
	}
	in.reads = grouting.HotspotWorkload(in.g, grouting.WorkloadSpec{
		NumHotspots: w.hotspots, QueriesPerHotspot: w.perHotspot, R: 2, H: 2, Types: w.types, Seed: seed,
	})
	if len(in.reads) == 0 {
		return nil, fmt.Errorf("workload %s generated no queries", w.name)
	}
	if trace || w.policy == grouting.PolicyEmbed || slices.Contains(w.types, grouting.KNearest) {
		var err error
		if in.coords, in.embedS, err = learnedEmbedding(in.g); err != nil {
			return nil, err
		}
	}
	in.want = make([]grouting.Result, len(in.reads))
	for i, q := range in.reads {
		in.want[i] = in.answer(in.g, q)
	}
	in.plan = newWritePlan(in.g, in.reads)
	return in, nil
}

// answer is the oracle for q on graph g.
func (in *inputs) answer(g *grouting.Graph, q grouting.Query) grouting.Result {
	if q.Type == grouting.KNearest {
		return grouting.AnswerKNN(g, in.coords, q)
	}
	return grouting.Answer(g, q)
}

// learnedEmbedding builds the paper's learned embedding of the dataset
// with the landmark and embedding parameters the networked router uses,
// and returns it with the seconds the embed layer took to place the
// landmarks and the nodes.
func learnedEmbedding(g *grouting.Graph) (*grouting.Embedding, float64, error) {
	sys, err := grouting.New(g,
		grouting.WithPolicy(grouting.PolicyEmbed),
		grouting.WithProcessors(numProcs),
		grouting.WithSeed(datasetSeed),
		grouting.WithLandmarks(embedLandmarks),
		grouting.WithMinSeparation(embedSeparation),
		grouting.WithDimensions(embedDims),
	)
	if err != nil {
		return nil, 0, fmt.Errorf("learn embedding: %w", err)
	}
	prep := sys.Prep()
	return sys.Embedding(), (prep.EmbedLandmarkTime + prep.EmbedNodeTime).Seconds(), nil
}

// writePlan issues writes whose effect on the graph is known however they
// interleave. Every write touches hotspot nodes (so it evicts cached
// records), yet no read answer changes:
//   - an edge slot toggles the edge fresh→hot, where fresh is a node the
//     plan created with no in-edges: no out-traversal or reachability path
//     can pass through it. A slot's next toggle is issued only after its
//     previous one completed, so each edge's history is sequential.
//   - an upsert rewrites a hotspot node with the label it already carries;
//     upserts are idempotent, so their order does not matter.
//
// Every issued write is applied to mirror, a copy of the dataset made at
// the first write. Only the generator goroutine calls next; completions
// release slots.
type writePlan struct {
	hot    []grouting.NodeID
	slots  []edgeSlot
	n      int
	cursor int
	mirror *grouting.Graph
}

type edgeSlot struct {
	from, to grouting.NodeID
	present  bool // the edge's state once every issued toggle is applied
	busy     atomic.Bool
}

// writeOp is one issued write; slot is the edge slot it toggles, or -1.
type writeOp struct {
	mut  grouting.Mutation
	slot int
}

const (
	planSlots  = 64
	planHotMax = 256
)

func newWritePlan(g *grouting.Graph, reads []grouting.Query) *writePlan {
	p := &writePlan{}
	seen := map[grouting.NodeID]bool{}
	for _, q := range reads {
		if len(p.hot) == planHotMax {
			break
		}
		if !seen[q.Node] {
			seen[q.Node] = true
			p.hot = append(p.hot, q.Node)
		}
	}
	p.slots = make([]edgeSlot, planSlots)
	for s := range p.slots {
		p.slots[s].from = g.MaxNodeID() + grouting.NodeID(s)
		p.slots[s].to = p.hot[s%len(p.hot)]
	}
	return p
}

// graph returns the dataset with every issued write applied: the mirror,
// or g while nothing was written.
func (p *writePlan) graph(g *grouting.Graph) *grouting.Graph {
	if p.mirror == nil {
		return g
	}
	return p.mirror
}

// writable returns the mirror, copying the dataset on first use.
func (p *writePlan) writable() *grouting.Graph {
	if p.mirror == nil {
		p.mirror = grouting.GenerateDataset(grouting.WebGraph, datasetScale, datasetSeed)
	}
	return p.mirror
}

// creates returns the upserts that create the plan's fresh nodes, applied
// to the mirror.
func (p *writePlan) creates() []grouting.Mutation {
	mirror := p.writable()
	muts := make([]grouting.Mutation, len(p.slots))
	for s := range p.slots {
		from := p.slots[s].from
		muts[s] = grouting.Mutation{Op: grouting.MutUpsertNode, Node: from}
		mirror.UpsertNode(from, mirror.InternLabel(""))
	}
	return muts
}

// next issues the plan's next write and applies it to the mirror: every
// other write toggles the next idle edge slot, the rest (and any toggle
// whose slot is still in flight) upsert a hotspot node.
func (p *writePlan) next() writeOp {
	mirror := p.writable()
	p.n++
	if p.n%2 == 0 {
		s := p.cursor % len(p.slots)
		p.cursor++
		sl := &p.slots[s]
		if sl.busy.CompareAndSwap(false, true) {
			m := grouting.Mutation{Op: grouting.MutAddEdge, Node: sl.from, To: sl.to}
			if sl.present {
				m.Op = grouting.MutRemoveEdge
				mirror.RemoveEdge(sl.from, sl.to)
			} else {
				mirror.EnsureEdge(sl.from, sl.to, mirror.InternLabel(""))
			}
			sl.present = !sl.present
			return writeOp{mut: m, slot: s}
		}
	}
	u := p.hot[p.n%len(p.hot)]
	mirror.UpsertNode(u, mirror.InternLabel(""))
	return writeOp{mut: grouting.Mutation{Op: grouting.MutUpsertNode, Node: u}, slot: -1}
}

// done releases op's slot once the write has completed.
func (p *writePlan) done(op writeOp) {
	if op.slot >= 0 {
		p.slots[op.slot].busy.Store(false)
	}
}

// checks returns the queries that read back every node the plan may have
// written: each node's out- and in-neighbourhood, answered on the mirror.
func (p *writePlan) checks() []grouting.Query {
	var qs []grouting.Query
	add := func(u grouting.NodeID) {
		for _, dir := range []grouting.Direction{grouting.Out, grouting.In} {
			qs = append(qs, grouting.Query{Type: grouting.NeighborAgg, Node: u, Hops: 1, Dir: dir})
		}
	}
	for s := range p.slots {
		add(p.slots[s].from)
	}
	for _, u := range p.hot {
		add(u)
	}
	return qs
}
