package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"

	grouting "repro"
)

// tap is a loopback proxy that keeps a copy of everything each client
// connection sends: the raw request bytes a real client produces.
type tap struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []*bytes.Buffer
	wg    sync.WaitGroup
}

func newTap(t *testing.T, target string) *tap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{ln: ln}
	tp.wg.Add(1)
	go func() {
		defer tp.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				return
			}
			rec := &lockedWriter{mu: &tp.mu, buf: new(bytes.Buffer)}
			tp.mu.Lock()
			tp.conns = append(tp.conns, rec.buf)
			tp.mu.Unlock()
			tp.wg.Add(2)
			go func() {
				defer tp.wg.Done()
				defer up.Close()
				io.Copy(io.MultiWriter(up, rec), down)
			}()
			go func() {
				defer tp.wg.Done()
				defer down.Close()
				io.Copy(down, up)
			}()
		}
	}()
	return tp
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// streams returns a copy of each connection's bytes.
func (tp *tap) streams() [][]byte {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	var out [][]byte
	for _, b := range tp.conns {
		out = append(out, bytes.Clone(b.Bytes()))
	}
	return out
}

// The parser reads the frames a real client writes: Dial's ping, then
// one execute per query, each with a tag unique on its connection (the
// client's pool may spread calls over several connections).
func TestParseRealRequestFrames(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t)
	tp := newTap(t, c.router.Addr())
	defer func() {
		tp.ln.Close()
		tp.wg.Wait()
	}()
	cl, err := grouting.Dial(ctx, tp.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	q := grouting.Query{Type: grouting.NeighborAgg, Node: 1, Hops: 2}
	for i := 0; i < 3; i++ {
		if _, err := cl.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()

	count := map[byte]int{}
	for _, stream := range tp.streams() {
		r := bytes.NewReader(stream)
		tags := map[uint64]bool{}
		for r.Len() > 0 {
			frame, err := readFrame(r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint32(frame); int(got) != len(frame)-frameHeader {
				t.Fatalf("header says %d payload bytes, frame has %d", got, len(frame)-frameHeader)
			}
			tag, op, err := parseRequest(frame)
			if err != nil {
				t.Fatal(err)
			}
			if tags[tag] {
				t.Errorf("tag %d reused on one connection", tag)
			}
			tags[tag] = true
			count[op]++
		}
	}
	if count[opPing] != 1 || count[opExecute] != 3 || len(count) != 2 {
		t.Errorf("ops %v, want one ping and three executes", count)
	}
}

func TestParseRejectsMalformedFrames(t *testing.T) {
	if _, _, err := parseRequest([]byte{1, 0, 0, 0}); err == nil {
		t.Error("empty payload parsed as a request")
	}
	if _, _, err := parseRequest([]byte{1, 0, 0, 0, 7}); err == nil {
		t.Error("request without an op byte parsed")
	}
	if _, err := parseResponse([]byte{1, 0, 0, 0, 0x80}); err == nil {
		t.Error("truncated tag parsed")
	}
	huge := []byte{0xff, 0xff, 0xff, 0x7f}
	if _, err := readFrame(bytes.NewReader(huge), nil); err == nil {
		t.Error("oversized frame accepted")
	}
}

// Through the relays of a traced cluster every call is matched to its
// response: reads, concurrent pipelined reads, and a write with its
// storage and eviction calls.
func TestRelaysRecordEveryCall(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t)
	rec := newRecorder()
	tc, err := buildTraced(ctx, c.in, c.storage, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.close()
	rec.on.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := c.in.reads[i%len(c.in.reads)]
			if _, err := tc.client.Execute(ctx, q); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := tc.client.UpsertNode(ctx, c.in.reads[0].Node, ""); err != nil {
		t.Fatal(err)
	}
	rec.on.Store(false)

	count := map[hop]map[byte]int{}
	for _, s := range rec.take() {
		if s.end < s.start || s.bytes <= 2*frameHeader {
			t.Errorf("span %+v: bad timing or size", s)
		}
		if count[s.hop] == nil {
			count[s.hop] = map[byte]int{}
		}
		count[s.hop][s.op]++
	}
	if got := count[hopClientRouter][opExecute]; got != 8 {
		t.Errorf("%d client executes recorded, want 8", got)
	}
	if got := count[hopClientRouter][opMutate]; got != 1 {
		t.Errorf("%d client mutates recorded, want 1", got)
	}
	if count[hopRouterProc][opExecute] < 8 || count[hopProcStorage][opMultiGet] == 0 {
		t.Errorf("router→processor executes %d, processor→storage multigets %d",
			count[hopRouterProc][opExecute], count[hopProcStorage][opMultiGet])
	}
	if count[hopRouterStorage][opPut] == 0 || count[hopRouterProc][opEvict] != numProcs {
		t.Errorf("write: %d storage puts, %d evictions (want > 0, %d)",
			count[hopRouterStorage][opPut], count[hopRouterProc][opEvict], numProcs)
	}
}

// testCluster is a small deployment of the hot workload's shape.
type testCluster struct {
	*cluster
	in *inputs
}

func newTestCluster(t *testing.T) testCluster {
	t.Helper()
	ctx := context.Background()
	w, _ := lookupWorkload("hot")
	g := grouting.GenerateDataset(grouting.WebGraph, 0.01, 1)
	in := &inputs{w: w, seed: 1, g: g}
	in.reads = grouting.HotspotWorkload(g, grouting.WorkloadSpec{NumHotspots: 4, QueriesPerHotspot: 4, Types: w.types, Seed: 1})
	c, err := setUp(ctx, in, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.close() })
	return testCluster{cluster: c, in: in}
}
