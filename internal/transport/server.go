package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Server accepts framed connections on a unix socket or loopback TCP
// listener and feeds them to one shared Engine. The engine is strictly
// serialized under a mutex — connections are concurrent, admissions are not —
// so a server session is as deterministic as the order frames win the lock.
// Reliable clients make that order the sequence order; open-loop clients are
// measuring overload, where arrival order is the experiment.
type Server struct {
	cfg Config

	ln net.Listener

	mu     sync.Mutex
	engine *Engine

	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
	closeErr  error
}

// Listen binds a server. network is "unix" or "tcp" (keep tcp on loopback:
// the protocol has no auth).
func Listen(network, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s %s: %w", network, addr, err)
	}
	return &Server{cfg: cfg, ln: ln, engine: NewEngine(cfg), closed: make(chan struct{})}, nil
}

// Addr returns the bound address (useful with "tcp 127.0.0.1:0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Engine returns the current session engine. Only read it after Close (or
// otherwise quiescing the accept loop): connection goroutines mutate it.
func (s *Server) Engine() *Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine
}

// SessionDone reports whether the current session has finished. Safe to call
// concurrently with connection handling (unlike Engine).
func (s *Server) SessionDone() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Finished()
}

// Serve accepts connections until Close. It returns nil on a close-triggered
// shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn serves one connection. Responses are encoded straight into the
// connection's write buffer, which is flushed only when a peer may be
// waiting on it: after a control frame (hello, tick, finish), whose answer
// peers block on and time, and whenever the read buffer holds no complete
// next frame, so the server never blocks reading with acks unsent. A burst
// of event frames therefore costs one write, not one per frame.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64*1024)
	bw := bufio.NewWriterSize(conn, 64*1024)
	for {
		fr, err := ReadFrame(br)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				// Best-effort decode diagnostic; the conn dies either way.
				writeFrame(bw, errFrame(0, err.Error()))
				bw.Flush()
			}
			return
		}
		s.mu.Lock()
		if fr.Type == MsgHello && s.engine.Finished() {
			// A hello after a finished session starts a fresh one.
			s.engine = NewEngine(s.cfg)
		}
		resps := s.engine.HandleFrame(fr)
		s.mu.Unlock()
		for i := range resps {
			if err := writeFrame(bw, resps[i]); err != nil {
				return
			}
		}
		if !isControl(fr.Type) && frameBuffered(br) {
			continue
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// writeFrame encodes a frame into the writer's free buffer space and writes
// it; nothing is allocated unless the frame outgrows that space.
func writeFrame(bw *bufio.Writer, f Frame) error {
	_, err := bw.Write(appendFrame(bw.AvailableBuffer(), f))
	return err
}

// isControl reports whether a client frame is one peers wait on.
func isControl(t byte) bool { return t == MsgHello || t == MsgTick || t == MsgFinish }

// frameBuffered reports whether br already holds a complete next frame, so
// reading it cannot block. A malformed or oversized length prefix reports
// false: the next read fails, and the responses so far go out first.
func frameBuffered(br *bufio.Reader) bool {
	b, _ := br.Peek(br.Buffered()) // never blocks: at most Buffered bytes
	n, k := binary.Uvarint(b)
	return k > 0 && n > 0 && n <= MaxFrame && uint64(len(b)-k) >= n
}

// Close shuts the listener and waits for every connection goroutine to
// drain, after which Engine() is safe to inspect.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.closeErr = s.ln.Close()
		s.wg.Wait()
	})
	return s.closeErr
}
