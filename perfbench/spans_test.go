package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{
		{start: 10, end: 30},
		{start: 20, end: 50}, // overlaps the first: covered once
		{start: 60, end: 70},
		{start: 90, end: 120}, // runs past the parent: clipped to 10
	}
	if got := selfTime(parent, children); got != 100-40-10-10 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("leaf selfTime = %d, want 100", got)
	}
}

// A synthetic two-query trace: a read whose processor call makes two
// storage rounds (the first fetching both shards in parallel), then a
// multi-anchor read answered while one subtask still runs, whose late
// storage call carries the next request id.
func TestAnalyzeSyntheticTrace(t *testing.T) {
	ops := []opTrace{
		{id: 0, class: "neighbor-agg", measured: true, start: 0, end: 1000},
		{id: 1, class: "bounded-reach", measured: true, start: 1100, end: 2000},
		{id: 2, class: "write", measured: true, start: 2100, end: 3000},
	}
	spans := []span{
		{id: 0, hop: hopClientRouter, op: opExecute, bytes: 40, start: 100, end: 900},
		{id: 0, hop: hopRouterProc, to: 1, op: opExecute, bytes: 40, start: 200, end: 800},
		{id: 0, hop: hopProcStorage, from: 1, to: 0, op: opMultiGet, bytes: 100, start: 300, end: 400},
		{id: 0, hop: hopProcStorage, from: 1, to: 1, op: opMultiGet, bytes: 100, start: 350, end: 450},
		{id: 0, hop: hopProcStorage, from: 1, to: 0, op: opMultiGet, bytes: 100, start: 500, end: 600},

		{id: 1, hop: hopClientRouter, op: opExecute, start: 1200, end: 1900},
		{id: 1, hop: hopRouterProc, to: 0, op: opExecute, start: 1300, end: 1500},
		{id: 1, hop: hopRouterProc, to: 2, op: opExecute, start: 1300, end: 2500},
		{id: 2, hop: hopProcStorage, from: 2, to: 0, op: opMultiGet, start: 2150, end: 2250},

		{id: 2, hop: hopClientRouter, op: opMutate, start: 2200, end: 2900},
		{id: 2, hop: hopRouterStorage, op: opGet, start: 2300, end: 2400},
		{id: 2, hop: hopRouterStorage, op: opPut, start: 2400, end: 2500},
		{id: 2, hop: hopRouterProc, to: 0, op: opEvict, start: 2600, end: 2700},
	}
	rep := analyze(ops, spans)
	if rep.unmatched != 0 || rep.broken != 0 || rep.late != 1 {
		t.Fatalf("unmatched %d broken %d late %d, want 0 0 1", rep.unmatched, rep.broken, rep.late)
	}
	if rep.reads != 2 || rep.writes != 1 {
		t.Fatalf("reads %d writes %d, want 2 1", rep.reads, rep.writes)
	}
	// Read 0: router self 800-600, processor self 600-250; read 1: router
	// self 700-600 (the late subtask clipped), processor self 200 + 1200-100.
	if want := (200.0 + 100) / 2; rep.routerSelf != want {
		t.Errorf("routerSelf = %v, want %v", rep.routerSelf, want)
	}
	if want := (350.0 + 200 + 1100) / 2; rep.procSelf != want {
		t.Errorf("procSelf = %v, want %v", rep.procSelf, want)
	}
	if want := (200.0 + 200) / 2; rep.clientSide != want {
		t.Errorf("clientSide = %v, want %v", rep.clientSide, want)
	}
	if want := (1.0 + 2) / 2; rep.procCalls != want {
		t.Errorf("procCalls = %v, want %v", rep.procCalls, want)
	}
	// Rounds: [300,450] and [500,600] for read 0, [2150,2250] for read 1.
	if want := (2.0 + 1) / 2; rep.rounds != want {
		t.Errorf("rounds = %v, want %v", rep.rounds, want)
	}
	if rep.roundCount != 3 || rep.roundMean != (150.0+100+100)/3 {
		t.Errorf("rounds %d of mean %v, want 3 of %v", rep.roundCount, rep.roundMean, (150.0+100+100)/3)
	}
	if want := 300.0 / 2; rep.storageBytes != want {
		t.Errorf("storageBytes = %v, want %v", rep.storageBytes, want)
	}
	// Self times sum to the client span where calls do not overlap; read
	// 0's parallel shard fetches add their 50ns overlap, read 1's second
	// subtask its parallel and late time.
	if want := (1050.0/1000 + 1700.0/900) / 2; !near(rep.accounted, want) {
		t.Errorf("accounted = %v, want %v", rep.accounted, want)
	}
	if rep.mutateSelf != 700-300 || rep.storageCalls != 2 || rep.evictCalls != 1 {
		t.Errorf("write: self %v storage %v evict %v, want 400 2 1", rep.mutateSelf, rep.storageCalls, rep.evictCalls)
	}
	if got := rep.classLat["write"]; len(got) != 1 || got[0] != 900 {
		t.Errorf("write latency %v, want [900]", got)
	}
}

func TestAnalyzeFlagsOrphansAndMissingRoots(t *testing.T) {
	ops := []opTrace{{id: 0, class: "random-walk", measured: true, start: 0, end: 100}}
	spans := []span{{id: 0, hop: hopProcStorage, from: 0, start: 10, end: 20}}
	rep := analyze(ops, spans)
	if rep.broken != 1 || rep.unmatched != 1 {
		t.Errorf("broken %d unmatched %d, want 1 1", rep.broken, rep.unmatched)
	}
}
