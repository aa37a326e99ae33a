package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	grouting "repro"
)

// tracedCluster is a second set of processors and a router over the run's
// storage shards, with a relay on every tier hop: client → router,
// router → each processor, each processor → each shard, and router → each
// shard. Each caller has its own relays, so a span names its caller.
type tracedCluster struct {
	relays []*relay
	procs  []*grouting.ProcessorServer
	router *grouting.RouterServer
	client grouting.Client
}

func buildTraced(ctx context.Context, in *inputs, storage []*grouting.StorageServer, rec *recorder) (tc *tracedCluster, err error) {
	tc = &tracedCluster{}
	defer func() {
		if err != nil {
			tc.close()
		}
	}()
	via := func(target string, h hop, from, to int) (string, error) {
		r, err := newRelay(target, h, from, to, rec)
		if err != nil {
			return "", err
		}
		tc.relays = append(tc.relays, r)
		return r.addr(), nil
	}
	var routerStorage []string
	for j, s := range storage {
		a, err := via(s.Addr(), hopRouterStorage, 0, j)
		if err != nil {
			return nil, err
		}
		routerStorage = append(routerStorage, a)
	}
	var procAddrs []string
	for i := 0; i < numProcs; i++ {
		var addrs []string
		for j, s := range storage {
			a, err := via(s.Addr(), hopProcStorage, i, j)
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, a)
		}
		ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{
			Storage: addrs, StorageReplicas: in.w.replicas, CacheBytes: in.w.cacheBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("traced processor: %w", err)
		}
		tc.procs = append(tc.procs, ps)
		a, err := via(ps.Addr(), hopRouterProc, 0, i)
		if err != nil {
			return nil, err
		}
		procAddrs = append(procAddrs, a)
	}
	spec := routerSpec(in, procAddrs)
	spec.Storage = routerStorage
	if tc.router, err = grouting.ServeRouter("127.0.0.1:0", spec); err != nil {
		return nil, fmt.Errorf("traced router: %w", err)
	}
	front, err := via(tc.router.Addr(), hopClientRouter, 0, 0)
	if err != nil {
		return nil, err
	}
	if tc.client, err = grouting.Dial(ctx, front); err != nil {
		return nil, fmt.Errorf("traced dial: %w", err)
	}
	return tc, nil
}

func (tc *tracedCluster) close() error {
	var errs []error
	if tc.client != nil {
		errs = append(errs, tc.client.Close())
	}
	if tc.router != nil {
		errs = append(errs, tc.router.Close())
	}
	for _, p := range tc.procs {
		errs = append(errs, p.Close())
	}
	for _, r := range tc.relays {
		errs = append(errs, r.close())
	}
	return errors.Join(errs...)
}

// tailPerClass is how many operations of each query class, and of writes,
// the traced run adds when the workload has none of them, so every class
// and the write path are traced on every deployment.
const tailPerClass = 32

// tracedRun is the per-layer half of a --trace 1 run. It first times the
// next measured operations serially on the untraced cluster, then closes
// that cluster's processors and router, builds the traced cluster over the
// same storage, warms it on the operations before them (their calls feed
// only the per-call figures), and replays them with one operation in
// flight, followed by the tail. It returns the untraced serial read
// latencies and the trace.
func tracedRun(ctx context.Context, r *runner, c *cluster, spanPath string) (untraced []int64, rep traceReport, err error) {
	count := r.in.w.traceOps
	startRead, startOp := r.readPos, r.next
	var wal0, wal1 counters
	_, wal0.walBytes, wal0.snapshots = storageCounters(c.storage)
	writes0 := r.writes.Load()
	lat, isRead, err := r.serial(ctx, c.client, count)
	if err != nil {
		return nil, rep, err
	}
	for i, l := range lat {
		if isRead[i] {
			untraced = append(untraced, l)
		}
	}
	if err := verifyWrites(ctx, r, c.client); err != nil {
		return nil, rep, err
	}
	if err := c.closeCompute(); err != nil {
		return nil, rep, fmt.Errorf("close untraced cluster: %w", err)
	}

	rec := newRecorder()
	tc, err := buildTraced(ctx, r.in, c.storage, rec)
	if err != nil {
		return nil, rep, err
	}
	defer tc.close()
	rec.on.Store(true)
	var ops []opTrace
	runOp := func(id int64, o op, q *grouting.Query, want grouting.Result, class string, measured, tail bool) error {
		rec.cur.Store(id)
		t0 := rec.now()
		var err error
		wrong := false
		if q != nil {
			var res grouting.Result
			res, err = tc.client.Execute(ctx, *q)
			wrong = err == nil && res != want
		} else {
			wrong, err = r.do(ctx, tc.client, o)
		}
		ops = append(ops, opTrace{id: id, class: class, measured: measured, tail: tail, start: t0, end: rec.now()})
		r.attempted++
		if err != nil || wrong {
			r.failed++
		}
		if wrong {
			r.wrong++
		}
		if err != nil {
			return fmt.Errorf("traced %s: %w", class, err)
		}
		return nil
	}
	classOf := func(o op) string {
		if o.read < 0 {
			return "write"
		}
		return r.in.reads[o.read].Type.String()
	}

	// Warm the fresh caches on the operations that precede the measured
	// ones in the stream; writes go on from where the plan stands.
	n := len(r.in.reads)
	r.readPos = ((startRead-count)%n + n) % n
	for i := 0; i < count; i++ {
		o := r.nextOp()
		if err := runOp(-1-int64(i), o, nil, grouting.Result{}, classOf(o), false, false); err != nil {
			return nil, rep, err
		}
	}
	r.readPos, r.next = startRead, startOp
	id := int64(0)
	for i := 0; i < count; i++ {
		o := r.nextOp()
		if err := runOp(id, o, nil, grouting.Result{}, classOf(o), true, false); err != nil {
			return nil, rep, err
		}
		id++
	}
	// The tail: classes the workload lacks, answered on the mirror (every
	// write so far has completed), then writes if it has none.
	for _, q := range tailQueries(r.in) {
		if err := runOp(id, op{}, &q, r.in.answer(r.in.plan.graph(r.in.g), q), q.Type.String(), true, true); err != nil {
			return nil, rep, err
		}
		id++
	}
	if r.in.w.writeEvery == 0 {
		for _, m := range r.in.plan.creates() {
			o := op{read: -1, write: writeOp{mut: m, slot: -1}}
			if err := runOp(id, o, nil, grouting.Result{}, "write", true, true); err != nil {
				return nil, rep, err
			}
			id++
		}
		for i := 0; i < 2*tailPerClass; i++ {
			o := op{read: -1, write: r.in.plan.next()}
			if err := runOp(id, o, nil, grouting.Result{}, "write", true, true); err != nil {
				return nil, rep, err
			}
			id++
		}
	}
	rec.on.Store(false)
	spans := rec.take()
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, rep, err
	}
	if err := verifyWrites(ctx, r, tc.client); err != nil {
		return nil, rep, err
	}
	_, wal1.walBytes, wal1.snapshots = storageCounters(c.storage)
	walBytes, err := wal1.walBytesSince(wal0)
	if err != nil {
		return nil, rep, err
	}
	rep = analyze(ops, spans)
	rep.walWrites = int(r.writes.Load() - writes0)
	rep.walPerWrite = walBytes / float64(max(rep.walWrites, 1))
	return untraced, rep, nil
}

// tailQueries returns tailPerClass queries of each class the workload's
// read stream lacks, drawn from the same hotspot generator.
func tailQueries(in *inputs) []grouting.Query {
	qs := grouting.HotspotWorkload(in.g, grouting.WorkloadSpec{
		NumHotspots: tailPerClass, QueriesPerHotspot: 2 * len(allTypes), R: 2, H: 2, Types: allTypes, Seed: in.seed + 1,
	})
	count := map[grouting.QueryType]int{}
	var tail []grouting.Query
	for _, q := range qs {
		if slices.Contains(in.w.types, q.Type) || count[q.Type] == tailPerClass {
			continue
		}
		count[q.Type]++
		tail = append(tail, q)
	}
	return tail
}

// verifyWrites checks the final graph: it reads every node the write plan
// may have touched back through c and counts each disagreement with the
// mirror as a wrong answer. It does nothing when nothing was written.
func verifyWrites(ctx context.Context, r *runner, c grouting.Client) error {
	if r.in.plan.mirror == nil {
		return nil
	}
	for _, q := range r.in.plan.checks() {
		res, err := c.Execute(ctx, q)
		r.attempted++
		if err != nil {
			r.failed++
			return fmt.Errorf("read back written node %d: %w", q.Node, err)
		}
		if res != grouting.Answer(r.in.plan.mirror, q) {
			r.wrong++
			r.failed++
		}
	}
	return nil
}

// writeSpans dumps the traced run's spans as tab-separated text, one call
// per line: request id, hop, caller, callee, op, bytes, start and end
// (ns on the recorder's clock).
func writeSpans(path string, spans []span) error {
	var b strings.Builder
	b.WriteString("id\thop\tfrom\tto\top\tbytes\tstart_ns\tend_ns\n")
	for _, s := range spans {
		fmt.Fprintf(&b, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n", s.id, s.hop, s.from, s.to, s.op, s.bytes, s.start, s.end)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
