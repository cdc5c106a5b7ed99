package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/server"
	"repro/internal/video"
)

// TestRunServeFailsClosed pins vload as TestDaemonSmoke's verifier: against
// a handler that serves the offline encoder's own packets, the intact
// stream passes, and each corruption below makes the run return an error
// rather than a report.
func TestRunServeFailsClosed(t *testing.T) {
	cfg := ServeConfig{Sessions: []int{1}, Frames: 3, Size: frame.SQCIF, Profile: video.Foreman, Verify: true}
	d := cfg.withDefaults()
	scfg, err := offlineConfig(d)
	if err != nil {
		t.Fatal(err)
	}
	offline, _, err := codec.EncodePackets(scfg, video.Generate(d.Profile, d.Size, d.Frames, d.Seed))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		packets func() [][]byte // what the handler streams
		trailer string          // X-Vcodec-Error value, if any
		wantErr string          // "" = the run must pass
	}{
		{name: "intact", packets: func() [][]byte { return offline }},
		{
			name: "flipped payload byte",
			packets: func() [][]byte {
				pkts := append([][]byte(nil), offline...)
				last := len(pkts) - 1
				pkts[last] = append([]byte(nil), pkts[last]...)
				pkts[last][len(pkts[last])/2] ^= 0x10
				return pkts
			},
			wantErr: "differs from offline",
		},
		{
			name:    "one frame short, no trailer",
			packets: func() [][]byte { return offline[:len(offline)-1] },
			wantErr: "truncated: 2/3 frames",
		},
		{
			name:    "error trailer",
			packets: func() [][]byte { return offline },
			trailer: "backend lost",
			wantErr: "server: backend lost",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				w.Header().Set("Trailer", server.TrailerError)
				pw := codec.NewPacketWriter(w)
				for i, p := range tc.packets() {
					if err := pw.WritePacket(i, p); err != nil {
						return
					}
				}
				if tc.trailer != "" {
					w.Header().Set(server.TrailerError, tc.trailer)
				}
			}))
			defer ts.Close()

			run := cfg
			run.URL = ts.URL
			res, err := RunServe(run)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("intact stream failed: %v", err)
			case tc.wantErr == "" && !res.Points[0].Verified:
				t.Fatal("intact stream not marked verified")
			case tc.wantErr != "" && err == nil:
				t.Fatalf("run passed, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}
