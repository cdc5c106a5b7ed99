package gateway

import (
	"errors"
	"io"
	"sync"
)

// replayUpload tees a session's upload so the gateway can retry a failed
// dispatch without asking the client to resend. One reader goroutine owns
// the client body and appends to a shared buffer on demand; attempts
// consume only from that buffer, at their own absolute offset. The first
// attempt therefore streams the body live, a later attempt replays the
// retained prefix and then continues where the stream is.
//
// Routing every byte through the buffer is what makes attempts safely
// cancellable: an aborted attempt's pending Read returns immediately
// (errAttemptClosed) instead of blocking inside the client body — a
// transport write loop stuck on an idle client can never wedge the
// session — and a byte pulled from the client on a dead attempt's behalf
// still lands in the buffer, so the next attempt gets it. Attempts are
// created sequentially and the previous one is always closed first.
//
// An upload that outgrows the limit stops being re-dispatchable: the
// consumed prefix is trimmed instead of retained (memory stays bounded,
// the stream keeps flowing) and replayable turns false. A committed
// session is never re-dispatched either, so committing trims the same
// way: from then on the buffer holds only bytes the reader pulled ahead
// of the committed attempt.
type replayUpload struct {
	mu   sync.Mutex
	cond *sync.Cond
	src  io.Reader

	buf      []byte // retained bytes [base, base+len(buf)) of the upload
	base     int    // absolute offset of buf[0]
	limit    int
	trim     bool // overflow or commit: consumed bytes are dropped, replay impossible
	srcDone  bool
	srcErr   error
	wanted   bool // a consumer is waiting for bytes the buffer lacks
	finished bool // session over: reader goroutine should exit
}

func newReplayUpload(src io.Reader, limit int) *replayUpload {
	u := &replayUpload{src: src, limit: limit}
	u.cond = sync.NewCond(&u.mu)
	go u.readLoop()
	return u
}

// readLoop is the only reader of the client body. It pulls a chunk
// whenever a consumer is starved, so upload backpressure still reaches
// the client (the reader never runs ahead of the attempt).
func (u *replayUpload) readLoop() {
	chunk := make([]byte, 32<<10)
	for {
		u.mu.Lock()
		for !u.wanted && !u.finished && !u.srcDone {
			u.cond.Wait()
		}
		if u.finished || u.srcDone {
			u.mu.Unlock()
			return
		}
		u.mu.Unlock()

		n, err := u.src.Read(chunk) // outside the lock: may block for long

		u.mu.Lock()
		if n > 0 {
			u.buf = append(u.buf, chunk[:n]...)
			if !u.trim && u.base+len(u.buf) > u.limit {
				u.trim = true
			}
		}
		if err != nil {
			u.srcDone, u.srcErr = true, err
		}
		u.wanted = false
		u.cond.Broadcast()
		u.mu.Unlock()
	}
}

// replayable reports whether a fresh attempt can still reproduce the full
// upload (no byte has been trimmed).
func (u *replayUpload) replayable() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return !u.trim
}

// close ends the session: the reader goroutine exits (once any in-flight
// src read returns) and blocked consumers unwedge.
func (u *replayUpload) close() {
	u.mu.Lock()
	u.finished = true
	u.cond.Broadcast()
	u.mu.Unlock()
}

// newAttempt returns the request body for one dispatch attempt: the
// buffered prefix first, then the live tail. Close the previous attempt
// before creating the next.
func (u *replayUpload) newAttempt() *attemptBody {
	return &attemptBody{u: u}
}

// attemptBody is one attempt's view of the upload.
type attemptBody struct {
	u      *replayUpload
	off    int // absolute offset of the next byte to consume
	closed bool
}

var errAttemptClosed = errors.New("gateway: attempt body closed")

func (a *attemptBody) Read(p []byte) (int, error) {
	u := a.u
	u.mu.Lock()
	defer u.mu.Unlock()
	for {
		if a.closed || u.finished {
			return 0, errAttemptClosed
		}
		if a.off < u.base {
			// Only possible for a stale attempt racing the trim;
			// stale attempts are closed, so this is a can't-happen guard.
			return 0, errAttemptClosed
		}
		if a.off < u.base+len(u.buf) {
			n := copy(p, u.buf[a.off-u.base:])
			a.off += n
			if u.trim {
				a.dropConsumed()
			}
			return n, nil
		}
		if u.srcDone {
			return 0, u.srcErr
		}
		u.wanted = true
		u.cond.Broadcast() // wake the reader
		u.cond.Wait()
	}
}

// dropConsumed drops the bytes a has consumed from the buffer: replay is
// off, so only a's unread tail is still needed. Called with u.mu held.
func (a *attemptBody) dropConsumed() {
	u := a.u
	u.buf = u.buf[a.off-u.base:]
	u.base = a.off
}

// commit makes a the session's only attempt: the upload stops being
// replayable and the prefix a has consumed, and every byte it consumes
// from now on, is dropped instead of retained.
func (a *attemptBody) commit() {
	a.u.mu.Lock()
	a.u.trim = true
	a.dropConsumed()
	a.u.mu.Unlock()
}

// Close aborts the attempt: its pending and future Reads fail fast. Both
// the transport (honoring the RoundTripper contract) and the gateway's
// own attempt teardown call it; it is idempotent.
func (a *attemptBody) Close() error {
	a.u.mu.Lock()
	a.closed = true
	a.u.cond.Broadcast()
	a.u.mu.Unlock()
	return nil
}
