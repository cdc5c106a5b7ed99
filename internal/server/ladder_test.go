package server

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// readLadderPackets splits a rung-tagged response stream back into
// per-rung packet lists, checking per-rung index ordering.
func readLadderPackets(t *testing.T, r io.Reader, nRungs int) [][][]byte {
	t.Helper()
	pkts := make([][][]byte, nRungs)
	lr := codec.NewLadderPacketReader(r)
	for {
		rung, idx, data, err := lr.ReadPacket()
		if err == io.EOF {
			return pkts
		}
		if err != nil {
			t.Fatalf("ladder record: %v", err)
		}
		if rung < 0 || rung >= nRungs {
			t.Fatalf("rung %d out of range", rung)
		}
		if idx != len(pkts[rung]) {
			t.Fatalf("rung %d: packet index %d, want %d", rung, idx, len(pkts[rung]))
		}
		pkts[rung] = append(pkts[rung], data)
	}
}

// TestServerLadderSession uploads one Y4M to /encode?ladder= and checks
// the interleaved response splits into per-rung streams byte-identical
// to an offline codec.EncodeLadder run, with the per-rung summary
// trailer in place.
func TestServerLadderSession(t *testing.T) {
	top := frame.Size{W: 64, H: 64}
	frames := video.Generate(video.Foreman, top, 6, 7)
	s, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/encode?qp=14&me=pbm&ladder=64x64,32x32,16x16",
		"video/x-yuv4mpeg", bytes.NewReader(y4mBody(t, frames)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != LadderContentType {
		t.Fatalf("content type %q, want %q", ct, LadderContentType)
	}
	got := readLadderPackets(t, resp.Body, 3)

	// Trailers land after the body is drained.
	if tf := resp.Trailer.Get(TrailerFrames); tf != "6" {
		t.Errorf("frames trailer %q, want 6", tf)
	}
	if te := resp.Trailer.Get(TrailerError); te != "" {
		t.Fatalf("error trailer: %s", te)
	}
	rungsTrailer := resp.Trailer.Get(TrailerRungs)
	parts := strings.Split(rungsTrailer, ";")
	if len(parts) != 3 {
		t.Fatalf("rungs trailer %q, want 3 entries", rungsTrailer)
	}
	for i, prefix := range []string{"64x64:6:", "32x32:6:", "16x16:6:"} {
		if !strings.HasPrefix(parts[i], prefix) {
			t.Errorf("rungs trailer entry %d = %q, want prefix %q", i, parts[i], prefix)
		}
	}

	// The served bytes must match the offline ladder encoder exactly.
	mkRung := func(sz frame.Size) codec.Rung {
		return codec.Rung{Size: sz, Cfg: codec.Config{
			Qp: 14, FPS: 30, Entropy: codec.EntropyExpGolomb, Searcher: &search.PBM{},
		}}
	}
	want, _, err := codec.EncodeLadder([]codec.Rung{
		mkRung(top), mkRung(frame.Size{W: 32, H: 32}), mkRung(frame.Size{W: 16, H: 16}),
	}, frames)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("rung %d: %d packets, offline %d", r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if !bytes.Equal(got[r][i], want[r][i]) {
				t.Fatalf("rung %d packet %d differs from offline EncodeLadder", r, i)
			}
		}
	}

	// Every rung decodes independently with the unmodified decoder.
	sizes := []frame.Size{top, {W: 32, H: 32}, {W: 16, H: 16}}
	for r, pkts := range got {
		dec, err := codec.NewPacketDecoder(pkts[0])
		if err != nil {
			t.Fatalf("rung %d header: %v", r, err)
		}
		if dec.Size() != sizes[r] {
			t.Fatalf("rung %d decodes as %v, want %v", r, dec.Size(), sizes[r])
		}
		for i, pkt := range pkts[1:] {
			if _, err := dec.DecodePacket(pkt); err != nil {
				t.Fatalf("rung %d frame %d: %v", r, i, err)
			}
		}
	}

	// Simulcast traffic must move the signals operators and the QoS loop
	// read: the /metrics phase totals and the controller's emit latency.
	samples, _ := parseExposition(t, scrapeMetrics(t, ts.URL))
	for _, name := range []string{"vcodecd_analysis_seconds_total", "vcodecd_entropy_seconds_total", "vcodecd_analysis_ms_per_frame", "vcodecd_entropy_ms_per_frame"} {
		if samples[name] <= 0 {
			t.Errorf("%s = %v after a ladder session, want > 0", name, samples[name])
		}
	}
	s.qos.mu.Lock()
	emitMs := s.qos.emitMs
	s.qos.mu.Unlock()
	if emitMs <= 0 {
		t.Errorf("QoS emit latency EWMA %v after a ladder session, want > 0", emitMs)
	}
}

// TestServerLadderBadRequests pins the fast-fail paths: malformed chains
// and a kbps query param (per-rung targets belong in the ladder spec).
func TestServerLadderBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{
		"ladder=64x64,48x48",     // not a 2:1 chain
		"ladder=65x64",           // not macroblock-aligned
		"ladder=64x64&kbps=300",  // kbps is per-rung in a ladder
		"ladder=64x64,32x32@abc", // bad rung bitrate
	} {
		resp, err := http.Post(ts.URL+"/encode?"+q, "video/x-yuv4mpeg", bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}
