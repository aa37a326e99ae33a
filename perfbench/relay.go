package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The relay understands only the documented frame header of the cluster's
// wire protocol: every message is [4-byte little-endian payload length]
// [payload], and every payload starts with the call's uvarint tag; a
// request's tag is followed by its op byte. Responses carry the tag of the
// request they answer, so a relay can time each call without decoding it.
const (
	frameHeader = 4
	maxFrame    = 64 << 20
)

// Op bytes of the wire protocol the trace tells apart.
const (
	opPing     = 1
	opGet      = 2
	opMultiGet = 3
	opPut      = 4
	opExecute  = 5
	opStats    = 6
	opMutate   = 9
	opEvict    = 10
)

var errFrame = errors.New("relay: malformed frame")

// readFrame reads one frame from r into buf (grown as needed) and returns
// the whole frame, header included.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeader {
		buf = make([]byte, 0, 1024)
	}
	buf = buf[:frameHeader]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > maxFrame {
		return nil, fmt.Errorf("%w: payload of %d bytes", errFrame, n)
	}
	total := frameHeader + int(n)
	if cap(buf) < total {
		nb := make([]byte, total)
		copy(nb, buf[:frameHeader])
		buf = nb
	}
	buf = buf[:total]
	if _, err := io.ReadFull(r, buf[frameHeader:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// parseRequest returns the tag and op byte of a request frame.
func parseRequest(frame []byte) (tag uint64, op byte, err error) {
	if len(frame) < frameHeader {
		return 0, 0, errFrame
	}
	p := frame[frameHeader:]
	tag, k := binary.Uvarint(p)
	if k <= 0 || k >= len(p) {
		return 0, 0, errFrame
	}
	return tag, p[k], nil
}

// parseResponse returns the tag of a response frame.
func parseResponse(frame []byte) (uint64, error) {
	if len(frame) < frameHeader {
		return 0, errFrame
	}
	tag, k := binary.Uvarint(frame[frameHeader:])
	if k <= 0 {
		return 0, errFrame
	}
	return tag, nil
}

// hop names a tier boundary the trace records calls on.
type hop uint8

const (
	hopClientRouter hop = iota
	hopRouterProc
	hopProcStorage
	hopRouterStorage
	numHops
)

var hopNames = [numHops]string{"client_router", "router_proc", "proc_storage", "router_storage"}

func (h hop) String() string { return hopNames[h] }

// span is one call observed by a relay: the request id the benchmark had
// in flight, the hop and the caller and callee indexes on it (0 for the
// client and the router), the op, the bytes of request and response
// frames, and when the request and the response crossed the relay (ns
// since the recorder started).
type span struct {
	id         int64
	hop        hop
	from, to   int
	op         byte
	bytes      int
	start, end int64
}

// recorder collects spans in memory while it is on. cur is the request id
// the benchmark has in flight; a relay stamps each call with the id
// current when its request crossed.
type recorder struct {
	base  time.Time
	on    atomic.Bool
	cur   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (rc *recorder) now() int64 { return time.Since(rc.base).Nanoseconds() }

func (rc *recorder) add(s span) {
	rc.mu.Lock()
	rc.spans = append(rc.spans, s)
	rc.mu.Unlock()
}

// take returns the spans recorded so far and clears the buffer.
func (rc *recorder) take() []span {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	s := rc.spans
	rc.spans = nil
	return s
}

// relay is a loopback TCP proxy in front of one daemon. It forwards frames
// unchanged in both directions and records a span per call crossing it.
type relay struct {
	ln       net.Listener
	target   string
	hop      hop
	from, to int
	rec      *recorder

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

func newRelay(target string, h hop, from, to int, rec *recorder) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &relay{ln: ln, target: target, hop: h, from: from, to: to, rec: rec}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// track registers c for closing; it reports false once the relay is
// closed.
func (r *relay) track(c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns = append(r.conns, c)
	return true
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		if !r.track(down) || !r.track(up) {
			down.Close()
			up.Close()
			return
		}
		r.wg.Add(2)
		p := &pairState{pending: map[uint64]pendingCall{}}
		go r.pumpRequests(down, up, p)
		go r.pumpResponses(up, down, p)
	}
}

// pendingCall is a request that crossed the relay and awaits its response.
type pendingCall struct {
	id    int64
	op    byte
	bytes int
	start int64
}

// pairState is the in-flight table of one proxied connection.
type pairState struct {
	mu      sync.Mutex
	pending map[uint64]pendingCall
}

// pumpRequests forwards request frames from src to dst, noting each one's
// tag, op and arrival time. Either pump ending closes both sockets.
func (r *relay) pumpRequests(src, dst net.Conn, p *pairState) {
	defer r.wg.Done()
	defer src.Close()
	defer dst.Close()
	br := bufio.NewReaderSize(src, 64<<10)
	var buf []byte
	for {
		frame, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = frame
		if r.rec.on.Load() {
			tag, op, err := parseRequest(frame)
			if err != nil {
				return
			}
			p.mu.Lock()
			p.pending[tag] = pendingCall{id: r.rec.cur.Load(), op: op, bytes: len(frame), start: r.rec.now()}
			p.mu.Unlock()
		}
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

// pumpResponses forwards response frames from src to dst and records a
// span for each one answering a noted request.
func (r *relay) pumpResponses(src, dst net.Conn, p *pairState) {
	defer r.wg.Done()
	defer src.Close()
	defer dst.Close()
	br := bufio.NewReaderSize(src, 64<<10)
	var buf []byte
	for {
		frame, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = frame
		end := r.rec.now()
		tag, err := parseResponse(frame)
		if err != nil {
			return
		}
		p.mu.Lock()
		call, ok := p.pending[tag]
		delete(p.pending, tag)
		p.mu.Unlock()
		if ok {
			r.rec.add(span{id: call.id, hop: r.hop, from: r.from, to: r.to, op: call.op,
				bytes: call.bytes + len(frame), start: call.start, end: end})
		}
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

// close stops accepting, closes every proxied socket and waits for the
// relay's goroutines to exit.
func (r *relay) close() error {
	r.mu.Lock()
	r.closed = true
	conns := r.conns
	r.conns = nil
	r.mu.Unlock()
	err := r.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
	return err
}
