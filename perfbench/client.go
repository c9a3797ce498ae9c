package main

// The benchmark's own single-connection client and the soclserved process it
// drives. Frames are encoded once at set-up; a session only writes bytes
// and times acknowledgements. The client runs two goroutines: the caller
// writes, one reader collects the server's responses.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/transport"
)

// server is one `soclserved -listen unix:PATH -once` process.
type server struct {
	cmd    *exec.Cmd
	sock   string
	csv    string
	stdout bytes.Buffer
	stderr bytes.Buffer
	start  time.Time
}

// startServer launches soclserved on a unix socket under dir. dir is
// relative to the working directory so the socket path stays within the
// kernel's length limit wherever the checkout lives.
func startServer(bin, dir string, n int, s serveSetup) (*server, error) {
	// The pid keeps concurrent benchmark runs in one checkout apart.
	name := fmt.Sprintf("s%d-%d", os.Getpid(), n)
	srv := &server{
		sock: filepath.Join(dir, name+".sock"),
		csv:  filepath.Join(dir, name+".csv"),
	}
	for _, p := range []string{srv.sock, srv.csv} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	args := append([]string{"-listen", "unix:" + srv.sock, "-once", "-quiet", "-csv", srv.csv}, s.args()...)
	srv.cmd = exec.Command(bin, args...)
	srv.cmd.Stdout = &srv.stdout
	srv.cmd.Stderr = &srv.stderr
	// Should the benchmark die mid-session, the server dies with it rather
	// than wait forever for a finish frame.
	srv.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	srv.start = time.Now()
	if err := srv.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start soclserved: %w", err)
	}
	return srv, nil
}

// dial connects once the server's socket accepts, polling until timeout.
func (s *server) dial(timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.Dial("unix", s.sock)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial soclserved: %w (stderr: %s)", err, strings.TrimSpace(s.stderr.String()))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// peakRSSMB reads the live server's peak resident set (VmHWM) in MiB. The
// rusage of a reaped child is no use here: on Linux it inherits the forking
// parent's high-water mark, which is the benchmark's, not the server's.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("server peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("server peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("server peak RSS: no VmHWM in /proc status")
}

// wait reaps the server.
func (s *server) wait() error {
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("soclserved: %w (stderr: %s)", err, strings.TrimSpace(s.stderr.String()))
	}
	return nil
}

// kill stops a server whose session failed and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	_ = s.wait()             // the session error is what gets reported
}

// wireFrames is a session pre-encoded for the wire.
type wireFrames struct {
	frames  []transport.Frame
	encoded [][]byte
	events  int
	// slotOf is the epoch each frame belongs to (a tick belongs to the epoch
	// it closes).
	slotOf []int
}

func encodeSession(frames []transport.Frame) *wireFrames {
	w := &wireFrames{frames: frames, encoded: make([][]byte, len(frames)), slotOf: make([]int, len(frames))}
	slot := 0
	for i := range frames {
		w.encoded[i] = transport.Encode(frames[i])
		w.slotOf[i] = slot
		switch frames[i].Type {
		case transport.MsgEvent:
			w.events++
		case transport.MsgTick:
			slot++
		}
	}
	return w
}

// sessionResult is what one socket session measured and received.
type sessionResult struct {
	Setup  time.Duration // process start → hello ack
	Wall   time.Duration // hello ack → result
	TickMS []float64     // per epoch: epoch's first write (closed loop) or tick due (open loop) → tick ack
	// TickSentMS is, in the closed loop, per epoch: tick sent → tick ack.
	TickSentMS []float64
	LagMS      []float64 // open loop: per frame, write time − due time
	// GapMS is, for a flood session, the time between consecutive tick
	// acks: the saturated server's service time per epoch.
	GapMS    []float64
	Accepted int
	Shed     int
	Unacked  int
	Errors   []string
	Summary  string // the server's MsgResult line
	CSV      []string
	RSSMB    float64
}

// conn is one client connection: the caller writes, readLoop collects.
type conn struct {
	c    net.Conn
	bw   *bufio.Writer
	w    *wireFrames
	t0   time.Time
	ctl  chan int // indexes of control frames as their acks (or the result) arrive
	done chan struct{}

	// Written by readLoop only; read after done is closed, except ackAt,
	// which the caller reads for a frame index it received on ctl.
	status []byte
	ackAt  []time.Duration
	result string
	errs   []string
}

func newConn(c net.Conn, w *wireFrames) *conn {
	controls := 0
	for i := range w.frames {
		if w.frames[i].Type != transport.MsgEvent {
			controls++
		}
	}
	k := &conn{
		c:      c,
		bw:     bufio.NewWriterSize(c, 64*1024),
		w:      w,
		t0:     time.Now(),
		ctl:    make(chan int, controls), // one send per control frame at most
		done:   make(chan struct{}),
		status: make([]byte, len(w.frames)),
		ackAt:  make([]time.Duration, len(w.frames)),
	}
	go k.readLoop()
	return k
}

func (k *conn) readLoop() {
	defer close(k.done)
	br := bufio.NewReaderSize(k.c, 64*1024)
	for {
		fr, err := transport.ReadFrame(br)
		if err != nil {
			return
		}
		now := time.Since(k.t0)
		if fr.Seq >= uint64(len(k.w.frames)) {
			k.errs = append(k.errs, fmt.Sprintf("response for unknown seq %d", fr.Seq))
			continue
		}
		i := int(fr.Seq)
		switch fr.Type {
		case transport.MsgAck:
			st, _, perr := transport.ParseAckBody(fr.Body)
			if perr != nil {
				k.errs = append(k.errs, perr.Error())
				continue
			}
			if k.w.frames[i].Type == transport.MsgEvent {
				if k.status[i] == 0 || k.status[i] == transport.StatusDuplicate {
					k.status[i] = st
				}
				continue
			}
			if k.ackAt[i] == 0 {
				k.ackAt[i] = now
				k.ctl <- i
			}
		case transport.MsgResult:
			k.result = string(fr.Body)
			k.ackAt[i] = now
			k.ctl <- i
		case transport.MsgError:
			k.errs = append(k.errs, string(fr.Body))
		}
	}
}

// write queues frame i; flush pushes everything queued to the socket.
func (k *conn) write(i int) error {
	_, err := k.bw.Write(k.w.encoded[i])
	return err
}

func (k *conn) flush() error { return k.bw.Flush() }

// await blocks until control frame i has been answered.
func (k *conn) await(i int, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case j := <-k.ctl:
			if j == i {
				return nil
			}
		case <-k.done:
			return fmt.Errorf("connection closed awaiting frame %d", i)
		case <-timer.C:
			return fmt.Errorf("no answer to frame %d within %s", i, timeout)
		}
	}
}

// close ends the connection and waits for the reader to exit.
func (k *conn) close() {
	k.c.Close()
	<-k.done
}

// sessionTimeout bounds every wait on the server.
const sessionTimeout = 60 * time.Second

// runSession drives one session against a fresh server. period 0 is the
// closed loop: each epoch's events back to back, then its tick, then wait
// for the tick's ack; an epoch is timed from its first frame's write to the
// tick's ack. A positive period is the open loop: epoch s's events are due
// evenly over [s·T, (s+1)·T), its tick at (s+1)·T, nothing waits, and a tick
// is timed from its due time. flood sends every frame as fast as the socket
// takes it.
func runSession(bin, dir string, n int, s serveSetup, w *wireFrames, period time.Duration, flood bool) (*sessionResult, error) {
	srv, err := startServer(bin, dir, n, s)
	if err != nil {
		return nil, err
	}
	res, err := drive(endpoint{
		dial:  func() (net.Conn, error) { return srv.dial(sessionTimeout) },
		start: srv.start,
		rss:   srv.peakRSSMB,
	}, w, period, flood)
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.wait(); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(srv.csv)
	if err != nil {
		return nil, fmt.Errorf("server csv: %w", err)
	}
	res.CSV = strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if first, _, _ := strings.Cut(srv.stdout.String(), "\n"); first != res.Summary {
		return nil, fmt.Errorf("server printed summary %q but sent %q", first, res.Summary)
	}
	for _, p := range []string{srv.sock, srv.csv} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return res, nil
}

// endpoint is what drive needs of a server.
type endpoint struct {
	dial  func() (net.Conn, error)
	start time.Time // when the server was started, for the set-up time
	// rss reads the server's peak memory while it still waits on the
	// connection; nil skips it.
	rss func() (float64, error)
}

func drive(ep endpoint, w *wireFrames, period time.Duration, flood bool) (*sessionResult, error) {
	c, err := ep.dial()
	if err != nil {
		return nil, err
	}
	k := newConn(c, w)
	defer k.close()
	res := &sessionResult{}
	last := len(w.frames) - 1
	if w.frames[0].Type != transport.MsgHello || w.frames[last].Type != transport.MsgFinish {
		return nil, fmt.Errorf("session must open with hello and end with finish")
	}
	if err := k.write(0); err != nil {
		return nil, err
	}
	if err := k.flush(); err != nil {
		return nil, err
	}
	if err := k.await(0, sessionTimeout); err != nil {
		return nil, err
	}
	begin := k.ackAt[0]
	sessionStart := k.t0.Add(begin)
	res.Setup = sessionStart.Sub(ep.start)

	var tickAt []time.Duration // epoch start (closed loop) or tick due (open loop)
	var sentAt []time.Duration // closed loop: tick sent
	var tickIdx []int
	switch {
	case flood:
		for i := 1; i <= last; i++ {
			if err := k.write(i); err != nil {
				return nil, err
			}
		}
		if err := k.flush(); err != nil {
			return nil, err
		}
	case period == 0:
		epochStart := time.Duration(-1)
		for i := 1; i < last; i++ {
			if epochStart < 0 {
				epochStart = time.Since(k.t0)
			}
			if err := k.write(i); err != nil {
				return nil, err
			}
			if w.frames[i].Type != transport.MsgTick {
				continue
			}
			if err := k.flush(); err != nil {
				return nil, err
			}
			tickAt = append(tickAt, epochStart)
			sentAt = append(sentAt, time.Since(k.t0))
			tickIdx = append(tickIdx, i)
			epochStart = -1
			if err := k.await(i, sessionTimeout); err != nil {
				return nil, err
			}
		}
		if err := k.write(last); err != nil {
			return nil, err
		}
		if err := k.flush(); err != nil {
			return nil, err
		}
	default:
		due := openLoopSchedule(w, period)
		for i := 1; i <= last; {
			wait := time.Until(sessionStart.Add(due[i]))
			if wait > 0 {
				time.Sleep(wait)
				continue
			}
			now := time.Since(sessionStart)
			from := i
			for ; i <= last && due[i] <= now; i++ {
				if err := k.write(i); err != nil {
					return nil, err
				}
				if w.frames[i].Type == transport.MsgTick {
					tickAt = append(tickAt, begin+due[i])
					tickIdx = append(tickIdx, i)
				}
			}
			if err := k.flush(); err != nil {
				return nil, err
			}
			sent := time.Since(sessionStart)
			for j := from; j < i; j++ {
				res.LagMS = append(res.LagMS, ms(sent-due[j]))
			}
		}
	}
	if err := k.await(last, sessionTimeout); err != nil {
		return nil, err
	}
	res.Wall = k.ackAt[last] - begin
	// The server lingers until this connection closes: read its peak
	// memory while it is still alive.
	if ep.rss != nil {
		if res.RSSMB, err = ep.rss(); err != nil {
			return nil, err
		}
	}
	k.close()
	for j, i := range tickIdx {
		res.TickMS = append(res.TickMS, ms(k.ackAt[i]-tickAt[j]))
		if sentAt != nil {
			res.TickSentMS = append(res.TickSentMS, ms(k.ackAt[i]-sentAt[j]))
		}
	}
	if flood {
		prev := begin
		for i := range w.frames {
			if w.frames[i].Type == transport.MsgTick {
				res.GapMS = append(res.GapMS, ms(k.ackAt[i]-prev))
				prev = k.ackAt[i]
			}
		}
	}
	for i := range w.frames {
		if w.frames[i].Type != transport.MsgEvent {
			continue
		}
		switch k.status[i] {
		case transport.StatusAccepted:
			res.Accepted++
		case transport.StatusShed:
			res.Shed++
		default:
			res.Unacked++
		}
	}
	res.Summary = k.result
	res.Errors = k.errs
	return res, nil
}

// openLoopSchedule returns each frame's due offset from the session start:
// epoch s's k events at s·T + j·T/k, its tick at (s+1)·T, the finish with
// the last tick.
func openLoopSchedule(w *wireFrames, period time.Duration) []time.Duration {
	due := make([]time.Duration, len(w.frames))
	for i := 1; i < len(w.frames); {
		j := i
		for j < len(w.frames) && w.frames[j].Type == transport.MsgEvent {
			j++
		}
		slot := time.Duration(w.slotOf[i])
		for e := i; e < j; e++ {
			due[e] = slot*period + time.Duration(e-i)*period/time.Duration(j-i)
		}
		if j < len(w.frames) {
			due[j] = (slot + 1) * period
			if w.frames[j].Type == transport.MsgFinish {
				due[j] = slot * period
			}
		}
		i = j + 1
	}
	return due
}
