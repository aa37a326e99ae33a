package main

import (
	"slices"
	"sort"
)

// unionLen is how much of [lo, hi] the spans cover together.
func unionLen(spans []span, lo, hi int64) int64 {
	var total int64
	for _, iv := range merged(spans, lo, hi) {
		total += iv[1] - iv[0]
	}
	return total
}

// merged clips spans to [lo, hi] and merges overlapping ones into disjoint
// intervals, in start order.
func merged(spans []span, lo, hi int64) [][2]int64 {
	ivs := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			ivs = append(ivs, [2]int64{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var out [][2]int64
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], iv[1])
			continue
		}
		out = append(out, iv)
	}
	return out
}

// selfTime is s's duration minus the part of it its child spans cover.
func selfTime(s span, children []span) int64 {
	return s.end - s.start - unionLen(children, s.start, s.end)
}

func contains(parent, child span) bool {
	return parent.start <= child.start && child.end <= parent.end
}

// opTrace is one operation of the traced run as the client saw it.
type opTrace struct {
	id         int64
	class      string // query class, or "write"
	measured   bool   // false for warm-up operations
	tail       bool   // an added class or write, not the workload's own
	start, end int64  // the client call, on the recorder's clock
}

// callTree is the spans of one operation arranged by caller: the client's
// call to the router, the router's calls, and each processor call's
// storage calls.
type callTree struct {
	root      span
	routerOut []span         // router → processors and router → storage
	procOut   map[int][]span // index into routerOut → its storage calls
	rounds    [][2]int64     // storage rounds: overlapping calls of one processor merged
	all       []span
	broken    int // spans that do not start inside their caller
	late      int // router calls still running when the router answered
}

// buildTree arranges one operation's spans. A processor's storage call
// belongs to the latest-starting call to that processor that contains it.
// A router call may outlive the router's answer (a multi-anchor query can
// be answered before its last subtask returns); it is counted as late.
func buildTree(op opTrace, spans []span) (callTree, bool) {
	t := callTree{procOut: map[int][]span{}, all: spans}
	roots := 0
	for _, s := range spans {
		switch s.hop {
		case hopClientRouter:
			t.root = s
			roots++
		case hopRouterProc, hopRouterStorage:
			t.routerOut = append(t.routerOut, s)
		}
	}
	if roots != 1 {
		return t, false
	}
	if t.root.start < op.start || t.root.end > op.end {
		t.broken++
	}
	byProc := map[int][]span{}
	for _, s := range spans {
		switch s.hop {
		case hopRouterProc, hopRouterStorage:
			switch {
			case s.start < t.root.start || s.start > t.root.end:
				t.broken++
			case s.end > t.root.end:
				t.late++
			}
		case hopProcStorage:
			byProc[s.from] = append(byProc[s.from], s)
			parent := -1
			for i, p := range t.routerOut {
				if p.hop == hopRouterProc && p.to == s.from && contains(p, s) &&
					(parent < 0 || p.start > t.routerOut[parent].start) {
					parent = i
				}
			}
			if parent < 0 {
				t.broken++
				continue
			}
			t.procOut[parent] = append(t.procOut[parent], s)
		}
	}
	procs := make([]int, 0, len(byProc))
	for p := range byProc {
		procs = append(procs, p)
	}
	slices.Sort(procs)
	for _, p := range procs {
		t.rounds = append(t.rounds, merged(byProc[p], 0, 1<<62)...)
	}
	return t, true
}

// traceReport is what the traced run measured. Per-operation figures are
// means over the workload's own measured operations; per-call figures
// (hop and round durations) average every traced call, warm-up included,
// so a hop a workload's steady state skips is still timed.
type traceReport struct {
	reads, writes int // measured operations analysed
	spans         int // spans recorded
	// Per read (ns, bytes, counts).
	routerSelf, procSelf, clientSide float64
	bytes, storageBytes              float64
	procCalls, rounds                float64
	accounted                        float64
	// Per write.
	mutateSelf, storageCalls, evictCalls float64
	// Per call (ns) and per round (ns).
	hopMean    [numHops]float64
	hopCalls   [numHops]int
	roundMean  float64
	roundCount int
	// Client latency (ns) by class, tail included.
	classLat map[string][]int64
	// readLat is the client latency (ns) of the workload's own measured
	// reads, in order.
	readLat []int64
	// unmatched counts measured operations without exactly one client
	// call; broken counts spans that do not start inside their caller;
	// late counts router calls that outlived the router's answer.
	unmatched, broken, late int
	// walPerWrite is the WAL bytes the shards appended per write over the
	// whole traced run (untraced serial part included), walWrites those
	// writes.
	walPerWrite float64
	walWrites   int
}

func analyze(ops []opTrace, spans []span) traceReport {
	rep := traceReport{classLat: map[string][]int64{}, spans: len(spans)}
	byID := map[int64][]span{}
	for _, s := range attributeStorage(spans, &rep.broken) {
		byID[s.id] = append(byID[s.id], s)
	}
	var hopSum [numHops]int64
	var roundSum int64
	for _, op := range ops {
		t, ok := buildTree(op, byID[op.id])
		if !ok {
			if op.measured {
				rep.unmatched++
			}
			continue
		}
		for _, s := range t.all {
			hopSum[s.hop] += s.end - s.start
			rep.hopCalls[s.hop]++
		}
		for _, r := range t.rounds {
			roundSum += r[1] - r[0]
			rep.roundCount++
		}
		if !op.measured {
			continue
		}
		rep.broken += t.broken
		rep.late += t.late
		lat := op.end - op.start
		rep.classLat[op.class] = append(rep.classLat[op.class], lat)
		if op.class == "write" {
			rep.addWrite(t)
			continue
		}
		if op.tail {
			continue
		}
		rep.reads++
		rep.readLat = append(rep.readLat, lat)
		self := selfTime(t.root, t.routerOut)
		rep.routerSelf += float64(self)
		rep.clientSide += float64(lat - (t.root.end - t.root.start))
		sum := self + lat - (t.root.end - t.root.start)
		for i, s := range t.routerOut {
			if s.hop == hopRouterProc && s.op == opExecute {
				ps := selfTime(s, t.procOut[i])
				rep.procSelf += float64(ps)
				rep.procCalls++
				sum += ps
			} else {
				sum += s.end - s.start
			}
		}
		for _, s := range t.all {
			rep.bytes += float64(s.bytes)
			if s.hop == hopProcStorage {
				rep.storageBytes += float64(s.bytes)
				sum += s.end - s.start
			}
		}
		rep.rounds += float64(len(t.rounds))
		rep.accounted += float64(sum) / float64(lat)
	}
	if n := float64(rep.reads); n > 0 {
		for _, v := range []*float64{&rep.routerSelf, &rep.procSelf, &rep.clientSide, &rep.bytes,
			&rep.storageBytes, &rep.procCalls, &rep.rounds, &rep.accounted} {
			*v /= n
		}
	}
	if n := float64(rep.writes); n > 0 {
		rep.mutateSelf /= n
		rep.storageCalls /= n
		rep.evictCalls /= n
	}
	for h := range hopSum {
		if rep.hopCalls[h] > 0 {
			rep.hopMean[h] = float64(hopSum[h]) / float64(rep.hopCalls[h])
		}
	}
	if rep.roundCount > 0 {
		rep.roundMean = float64(roundSum) / float64(rep.roundCount)
	}
	return rep
}

// attributeStorage returns spans with every processor → storage call
// carrying the request id of the router → processor call it served. The
// relay stamps a call with the id in flight when it starts, which for a
// subtask still running after its query was answered is already the next
// operation's; the enclosing processor call's id is the right one. A
// storage call no processor call encloses is counted in broken and
// dropped.
func attributeStorage(spans []span, broken *int) []span {
	calls := map[int][]span{} // processor → calls it received, by start
	for _, s := range spans {
		if s.hop == hopRouterProc {
			calls[s.to] = append(calls[s.to], s)
		}
	}
	for _, cs := range calls {
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	}
	out := make([]span, 0, len(spans))
	for _, s := range spans {
		if s.hop == hopProcStorage {
			cs := calls[s.from]
			i := sort.Search(len(cs), func(i int) bool { return cs[i].start > s.start }) - 1
			for ; i >= 0 && !contains(cs[i], s); i-- {
			}
			if i < 0 {
				*broken++
				continue
			}
			s.id = cs[i].id
		}
		out = append(out, s)
	}
	return out
}

// addWrite accumulates one measured write's router self time and the
// calls the router made for it.
func (rep *traceReport) addWrite(t callTree) {
	rep.writes++
	rep.mutateSelf += float64(selfTime(t.root, t.routerOut))
	for _, s := range t.routerOut {
		switch {
		case s.hop == hopRouterStorage:
			rep.storageCalls++
		case s.op == opEvict:
			rep.evictCalls++
		}
	}
}
