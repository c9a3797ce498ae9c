package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/msvc"
	"repro/internal/serve"
	"repro/internal/topology"
)

// writeLog keeps a copy of every Write the server makes on its connections.
type writeLog struct {
	mu     sync.Mutex
	writes [][]byte
}

// since snapshots the writes from index from on.
func (l *writeLog) since(from int) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]byte(nil), l.writes[from:]...)
}

func (l *writeLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.writes)
}

type recordingConn struct {
	net.Conn
	log *writeLog
}

func (c recordingConn) Write(b []byte) (int, error) {
	c.log.mu.Lock()
	c.log.writes = append(c.log.writes, append([]byte(nil), b...))
	c.log.mu.Unlock()
	return c.Conn.Write(b)
}

type recordingListener struct {
	net.Listener
	log *writeLog
}

func (l recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return recordingConn{Conn: c, log: l.log}, nil
}

// flushHarness is an ordered server on a unix socket whose connection
// writes are recorded, plus one raw client connection past its hello.
type flushHarness struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	log  writeLog
	seq  uint64
}

func newFlushHarness(t *testing.T) *flushHarness {
	t.Helper()
	g := topology.RandomGeometric(4, 0.6, topology.DefaultGenConfig(), 1)
	cat := msvc.EShopCatalog(msvc.DefaultDatasetConfig(), 1)
	cfg := Config{
		Ordered: true,
		Factory: func(serve.Meta) (serve.Config, error) {
			return serve.Config{
				Graph: g, Catalog: cat, Lambda: 0.5, Budget: 1000,
				Planner: func(*model.Instance) (model.Placement, error) {
					return model.NewPlacement(cat.Len(), g.N()), nil
				},
			}, nil
		},
	}
	h := &flushHarness{}
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "s.sock"))
	if err != nil {
		t.Fatal(err)
	}
	h.srv = &Server{
		cfg:    cfg,
		ln:     recordingListener{Listener: ln, log: &h.log},
		engine: NewEngine(cfg),
		closed: make(chan struct{}),
	}
	go h.srv.Serve()
	t.Cleanup(func() { h.srv.Close() })
	if h.conn, err = net.Dial("unix", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.conn.Close() })
	h.br = bufio.NewReader(h.conn)
	hello := h.frame(MsgHello, []byte(serve.FormatMeta(serve.Meta{NumSlots: 4})))
	h.send(t, Encode(hello))
	h.await(t, hello.Seq)
	return h
}

// frame builds the next frame in sequence.
func (h *flushHarness) frame(typ byte, body []byte) Frame {
	f := Frame{Type: typ, Seq: h.seq, Body: body}
	h.seq++
	return f
}

// events encodes n departs of unknown IDs: cheap, valid, acked one each.
func (h *flushHarness) events(n, slot int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, Encode(h.frame(MsgEvent, EventBody(0, fmt.Sprintf("depart %d %d", slot, 1000+i))))...)
	}
	return b
}

func (h *flushHarness) send(t *testing.T, b []byte) {
	t.Helper()
	if _, err := h.conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

// await reads responses until the one for seq arrives.
func (h *flushHarness) await(t *testing.T, seq uint64) {
	t.Helper()
	if err := h.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for {
		fr, err := ReadFrame(h.br)
		if err != nil {
			t.Fatalf("awaiting response to seq %d: %v", seq, err)
		}
		if fr.Type == MsgError {
			t.Fatalf("server error: %s", fr.Body)
		}
		if fr.Seq == seq {
			return
		}
	}
}

// TestFlushCoalescesEpoch: a closed-loop epoch of N event frames and its
// tick, sent in one burst, is answered in O(1) writes, not one per frame.
func TestFlushCoalescesEpoch(t *testing.T) {
	h := newFlushHarness(t)
	const n = 500
	w0 := h.log.count()
	burst := h.events(n, 0)
	tick := h.frame(MsgTick, TickBody(1))
	h.send(t, append(burst, Encode(tick)...))
	h.await(t, tick.Seq)
	if got := h.log.count() - w0; got > 4 {
		t.Fatalf("an epoch of %d events and a tick took %d writes, want O(1)", n, got)
	}
}

// TestFlushTickAckWithEventsBehind: a tick's ack goes out as soon as the
// tick is handled, even while the next epoch's event frames are already
// buffered behind it; those events' acks follow in a later write.
func TestFlushTickAckWithEventsBehind(t *testing.T) {
	h := newFlushHarness(t)
	w0 := h.log.count()
	burst := h.events(20, 0)
	tick := h.frame(MsgTick, TickBody(1))
	burst = append(burst, Encode(tick)...)
	burst = append(burst, h.events(200, 1)...)
	h.send(t, burst)
	h.await(t, h.seq-1)
	found := false
	for i, w := range h.log.since(w0) {
		br := bufio.NewReader(bytes.NewReader(w))
		var last Frame
		hasTick := false
		for {
			fr, err := ReadFrame(br)
			if err != nil {
				break
			}
			hasTick = hasTick || fr.Seq == tick.Seq
			last = fr
		}
		if hasTick {
			found = true
			if last.Seq != tick.Seq {
				t.Fatalf("write %d carries the tick ack (seq %d) but continues to seq %d: the tick waited for later events",
					i, tick.Seq, last.Seq)
			}
		}
	}
	if !found {
		t.Fatal("no write carried the tick ack")
	}
}

// TestFlushNoDeadlockOnPartialFrame: a client that sends k complete frames
// and half of one more, then blocks reading, receives all k acks — the
// server flushes before it blocks on the incomplete frame.
func TestFlushNoDeadlockOnPartialFrame(t *testing.T) {
	h := newFlushHarness(t)
	const k = 50
	burst := h.events(k, 0)
	next := Encode(h.frame(MsgEvent, EventBody(0, "depart 0 7")))
	half := len(next) / 2
	h.send(t, append(burst, next[:half]...))
	h.await(t, h.seq-2) // the k-th frame's ack
	h.send(t, next[half:])
	h.await(t, h.seq-1)
}
