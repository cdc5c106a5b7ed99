package gateway

import (
	"bytes"
	"io"
	"testing"
)

// TestReplayDropsCommittedUpload streams 8 MiB through an attempt after it
// commits: a committed session is never re-dispatched, so the upload
// buffer must stay within two of the reader's 32 KiB chunks instead of
// retaining the upload up to the replay limit. Before the commit the
// consumed prefix is kept, so a retry could still replay it.
func TestReplayDropsCommittedUpload(t *testing.T) {
	const size, chunk = 8 << 20, 32 << 10
	src := make([]byte, size)
	for i := range src {
		src[i] = uint8(i * 7)
	}
	u := newReplayUpload(bytes.NewReader(src), 64<<20)
	defer u.close()
	a := u.newAttempt()
	defer a.Close()

	retained := func() int {
		u.mu.Lock()
		defer u.mu.Unlock()
		return len(u.buf)
	}
	got := make([]byte, 0, size)
	p := make([]byte, 4<<10)
	for len(got) < 3*chunk {
		n, err := a.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p[:n]...)
	}
	if r := retained(); r < len(got) {
		t.Fatalf("before commit the buffer holds %d bytes, less than the %d consumed", r, len(got))
	}
	if !u.replayable() {
		t.Fatal("upload not replayable before commit")
	}

	a.commit()
	if u.replayable() {
		t.Fatal("committed upload still claims to be replayable")
	}
	peak := retained()
	for {
		n, err := a.Read(p)
		got = append(got, p[:n]...)
		if r := retained(); r > peak {
			peak = r
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("attempt read %d bytes, not the %d-byte upload", len(got), size)
	}
	t.Logf("peak retained after commit: %d bytes", peak)
	if peak >= 2*chunk {
		t.Fatalf("committed attempt retained up to %d bytes, want < %d", peak, 2*chunk)
	}
}
