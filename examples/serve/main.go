// Serve walkthrough: the encode-as-a-service flow end to end, in one
// process — boot the vcodecd serving layer on a loopback port, upload a
// synthetic clip over HTTP, decode the packet stream as it arrives (note
// the first packet lands after one frame, not one sequence), verify the
// streamed bits match the offline encoder exactly, put a vcodec-gateway
// in front of two backends and run the same verified session through the
// fleet, then exercise the QoS degradation ladder: a session pinned at a
// degraded level still streams exactly what the offline encoder produces
// at that level.
//
// Run with:
//
//	go run ./examples/serve
//
// The same flow with the installed tools and a real daemon:
//
//	go run ./cmd/vcodecd -addr :8323 &
//	go run ./cmd/seqgen -profile foreman -frames 30 -o f.y4m
//	curl -sN --data-binary @f.y4m 'http://localhost:8323/encode?qp=16&me=acbm' > f.pkt
//	go run ./cmd/vcodec decode -i f.pkt -o f_dec.y4m -packets
//	curl -s http://localhost:8323/metrics | grep vcodecd_frames
//	kill -TERM %1     # graceful drain
//
// And the fleet topology — N encode backends behind one gateway, which
// routes sessions health-aware least-loaded, retries placement while no
// response byte has been committed, circuit-breaks sick backends, and
// drains gateway-first on SIGTERM:
//
//	go run ./cmd/vcodecd -addr :8323 &
//	go run ./cmd/vcodecd -addr :8324 &
//	go run ./cmd/vcodec-gateway -addr :8320 \
//	    -backends http://localhost:8323,http://localhost:8324 &
//	curl -sN --data-binary @f.y4m 'http://localhost:8320/encode?qp=16&me=acbm' > f.pkt
//	curl -s http://localhost:8320/healthz          # per-backend view
//	curl -s http://localhost:8320/metrics | grep gateway_backend_up
//	go run ./cmd/vload -url http://localhost:8320 -sessions 8 -verify
//	kill -TERM %3 && kill -TERM %1 %2             # gateway, then backends
//
// (`make cluster-smoke` runs this with a backend SIGKILLed between
// bursts: the next verified burst must still pass, through failover.)
//
// Under overload the daemon does not let latency grow without bound: a
// closed-loop controller steps sessions down a degradation ladder
// (ACBM's α/γ thresholds relaxed, then higher Qp) and restores them
// with hysteresis once load subsides. Batch-priority sessions degrade
// first and queue behind live ones; a pinned session is exempt and
// byte-reproducible:
//
//	curl -sN --data-binary @f.y4m \
//	    'http://localhost:8323/encode?qp=16&me=acbm&priority=batch' > f.pkt
//	curl -sN --data-binary @f.y4m \
//	    'http://localhost:8323/encode?qp=16&me=acbm&qoslevel=2' > f2.pkt
//	curl -s http://localhost:8323/healthz | grep -o '"qos_level":[0-9]*'
//	go run ./cmd/vload -url http://localhost:8323 -sessions 1 -qoslevel 2 -verify
//
// One upload can also fan out to a simulcast ABR ladder — N renditions
// from one ingest, each lower rung's motion search seeded from the rung
// above's scaled motion field, per-rung records interleaved on the wire
// and every rung independently decodable:
//
//	go run ./cmd/seqgen -profile foreman -size 128x128 -frames 30 -o l.y4m
//	curl -sN --data-binary @l.y4m \
//	    'http://localhost:8323/encode?qp=16&me=pbm&ladder=128x128@300,64x64@100,32x32@40' > l.bin
//	go run ./cmd/vcodec ladder-split -i l.bin -o l.acbm   # → l.r0..r2.acbm
//	go run ./cmd/vcodec decode -packets -i l.r1.acbm -o l_mid.y4m
//
// Every session also leaves a flight record: the X-Vcodec-Trace trailer
// names it (mint your own by sending the header), and the debug
// endpoints replay its per-frame phase timeline — through the gateway,
// which proxies the lookup across the fleet, or against a backend
// directly:
//
//	id=$(curl -sN --data-binary @f.y4m -D - \
//	    'http://localhost:8320/encode?qp=16&me=acbm' -o /dev/null \
//	    | grep -i x-vcodec-trace | tr -d '\r' | cut -d' ' -f2)
//	curl -s "http://localhost:8320/debug/vcodec/trace?id=$id"
//	curl -s http://localhost:8323/debug/vcodec/sessions
//	curl -s http://localhost:8323/debug/vcodec/qos
//	curl -s http://localhost:8323/metrics | grep analysis_seconds_bucket
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/video"
)

func main() {
	// 1. The serving layer: a shared analysis pool sized to the machine,
	//    8 concurrent sessions, listening on a random loopback port.
	srv := server.New(server.Config{MaxSessions: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler())
	base := "http://" + ln.Addr().String()
	fmt.Printf("vcodecd serving on %s\n\n", base)

	// 2. A client: 30 QCIF frames of the Foreman stand-in, serialised as
	//    the Y4M upload body.
	frames := video.Generate(video.Foreman, frame.QCIF, 30, 1)
	var upload bytes.Buffer
	if err := frame.WriteY4M(&upload, frames, 30, 1); err != nil {
		log.Fatal(err)
	}

	// 3. POST the clip and decode the response as it streams: packet 0 is
	//    the sequence header, packet i+1 carries frame i.
	start := time.Now()
	resp, err := http.Post(base+"/encode?qp=16&me=acbm", "video/x-yuv4mpeg", &upload)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		log.Fatalf("server: %s: %s", resp.Status, msg)
	}
	pr := codec.NewPacketReader(resp.Body)
	var (
		dec      *codec.PacketDecoder
		received [][]byte
		sumPSNR  float64
		decoded  int
	)
	for {
		idx, pkt, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		received = append(received, pkt)
		switch {
		case idx == 0:
			if dec, err = codec.NewPacketDecoder(pkt); err != nil {
				log.Fatal(err)
			}
		default:
			f, err := dec.DecodePacket(pkt)
			if err != nil {
				log.Fatal(err)
			}
			if decoded == 0 {
				fmt.Printf("first frame decoded %.0f ms after the request — a live stream,\n"+
					"not a batch job (the upload is still in flight)\n\n", time.Since(start).Seconds()*1e3)
			}
			p, _ := frame.PSNR(frames[decoded].Y, f.Y)
			sumPSNR += p
			decoded++
		}
	}
	fmt.Printf("streamed %d packets, decoded %d frames, PSNR-Y %.2f dB\n",
		len(received), decoded, sumPSNR/float64(decoded))
	fmt.Printf("session trailers: frames=%s psnr=%s kbps=%s\n\n",
		resp.Trailer.Get(server.TrailerFrames),
		resp.Trailer.Get(server.TrailerPSNRY),
		resp.Trailer.Get(server.TrailerKbps))

	// 4. The serving guarantee: the streamed packets are byte-identical
	//    to the offline encoder's.
	offline, _, err := codec.EncodePackets(codec.Config{
		Qp: 16, FPS: 30, Searcher: core.New(core.DefaultParams),
	}, frames)
	if err != nil {
		log.Fatal(err)
	}
	if len(offline) != len(received) {
		log.Fatalf("packet count differs: served %d, offline %d", len(received), len(offline))
	}
	for i := range offline {
		if !bytes.Equal(offline[i], received[i]) {
			log.Fatalf("packet %d differs from the offline encoder", i)
		}
	}
	fmt.Println("served bitstream is byte-identical to the offline encoder ✓")

	// 5. The fleet topology: a second backend and a vcodec-gateway in
	//    front of both. The gateway polls each backend's /healthz and
	//    /metrics, routes sessions least-loaded, and retries placement as
	//    long as zero response bytes have been committed to the client —
	//    so the same byte-identity claim holds through the fleet. The
	//    X-Vcodec-Backend / X-Vcodec-Attempts trailers say where the
	//    session ran and how many dispatch attempts it took.
	srv2 := server.New(server.Config{MaxSessions: 8})
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln2, srv2.Handler())
	gw, err := gateway.New(gateway.Config{
		Backends:     []string{base, "http://" + ln2.Addr().String()},
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	lnGw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(lnGw, gw.Handler())
	gwBase := "http://" + lnGw.Addr().String()
	fmt.Printf("\nvcodec-gateway on %s fronting 2 backends\n", gwBase)

	// Wait for the gateway's first health polls: /healthz answers 200
	// once at least one backend is eligible.
	for {
		hr, err := http.Get(gwBase + "/healthz")
		if err == nil {
			hr.Body.Close()
			if hr.StatusCode == http.StatusOK {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := frame.WriteY4M(&upload, frames, 30, 1); err != nil {
		log.Fatal(err)
	}
	resp2, err := http.Post(gwBase+"/encode?qp=16&me=acbm", "video/x-yuv4mpeg", &upload)
	if err != nil {
		log.Fatal(err)
	}
	defer resp2.Body.Close()
	routed, err := io.ReadAll(resp2.Body)
	if err != nil {
		log.Fatal(err)
	}
	if e := resp2.Trailer.Get(gateway.TrailerError); e != "" {
		log.Fatalf("gateway session failed mid-stream: %s", e)
	}
	var flat bytes.Buffer
	pw := codec.NewPacketWriter(&flat)
	for i, pkt := range offline {
		if err := pw.WritePacket(i, pkt); err != nil {
			log.Fatal(err)
		}
	}
	if !bytes.Equal(routed, flat.Bytes()) {
		log.Fatal("gateway-routed stream differs from the offline encoder")
	}
	fmt.Printf("fleet-routed session verified ✓ (backend=%s attempts=%s)\n",
		resp2.Trailer.Get(gateway.TrailerBackend),
		resp2.Trailer.Get(gateway.TrailerAttempts))

	// 6. The QoS ladder: ?qoslevel=2 pins this session two rungs down
	//    (ACBM's α/γ thresholds ×8 and Qp+3). The pin exempts it from the
	//    closed-loop controller, so its bytes are exactly the offline
	//    encoder's at that level — the same determinism claim as step 4,
	//    one degradation rung lower.
	//    Adaptive sessions get the same treatment dynamically: under
	//    overload the controller steps them down (batch priority first),
	//    the X-Vcodec-Qos-Level trailer reports where each stream ended,
	//    and quality is restored once load subsides.
	if err := frame.WriteY4M(&upload, frames, 30, 1); err != nil {
		log.Fatal(err)
	}
	resp3, err := http.Post(base+"/encode?qp=16&me=acbm&qoslevel=2", "video/x-yuv4mpeg", &upload)
	if err != nil {
		log.Fatal(err)
	}
	defer resp3.Body.Close()
	pinned, err := io.ReadAll(resp3.Body)
	if err != nil {
		log.Fatal(err)
	}
	degraded, _, err := codec.EncodePackets(server.ApplyQosLevel(codec.Config{
		Qp: 16, FPS: 30, Searcher: core.New(core.DefaultParams),
	}, 2), frames)
	if err != nil {
		log.Fatal(err)
	}
	flat.Reset()
	pw = codec.NewPacketWriter(&flat)
	for i, pkt := range degraded {
		if err := pw.WritePacket(i, pkt); err != nil {
			log.Fatal(err)
		}
	}
	if !bytes.Equal(pinned, flat.Bytes()) {
		log.Fatal("pinned degraded stream differs from the offline encoder")
	}
	fmt.Printf("\nsession pinned at QoS level %s verified against ApplyQosLevel ✓\n"+
		"(%d bytes at level 2 vs %d at level 0 — quality traded for cycles)\n",
		resp3.Trailer.Get(server.TrailerQosLevel), flat.Len(), len(routed))

	// 7. The flight recorder: the fleet session's X-Vcodec-Trace trailer
	//    keys a per-frame phase timeline on whichever backend served it;
	//    the gateway proxies the lookup so the client needs no routing
	//    knowledge. This is the handle a tail-latency investigation
	//    starts from — vload prints it for each point's slowest session.
	traceID := resp2.Trailer.Get(gateway.TrailerTrace)
	tr, err := http.Get(gwBase + "/debug/vcodec/trace?id=" + traceID)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Body.Close()
	var rec obs.Record
	if err := json.NewDecoder(tr.Body).Decode(&rec); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nflight record %s (%d frames, served by %s):\n",
		rec.TraceID, rec.Frames, tr.Header.Get(gateway.TrailerBackend))
	for _, ev := range rec.Events[:3] {
		fmt.Printf("  frame %d: read %.2f  wait %.2f  analysis %.2f  entropy %.2f  emit %.2f ms  %d bits\n",
			ev.Index, ev.ReadMs, ev.QueueWaitMs, ev.AnalysisMs, ev.EntropyMs, ev.EmitMs, ev.Bits)
	}
	fmt.Printf("  ... %d more frames in the ring\n", len(rec.Events)-3)

	// 8. The simulcast ladder: one upload, three renditions. The server
	//    ingests the clip once, downscales 2:1 per rung through the
	//    pooled frame substrate, and seeds each lower rung's motion
	//    search from the rung above's scaled motion field — far cheaper
	//    than three independent encodes, while every rung stays
	//    independently decodable and byte-identical to the offline
	//    codec.EncodeLadder. Records interleave on the wire (uvarint
	//    rung, index, length, payload); the X-Vcodec-Rungs trailer
	//    summarises frames/PSNR/kbps per rung.
	lframes := video.Generate(video.Foreman, frame.Size{W: 128, H: 128}, 12, 1)
	if err := frame.WriteY4M(&upload, lframes, 30, 1); err != nil {
		log.Fatal(err)
	}
	resp5, err := http.Post(base+"/encode?qp=16&me=pbm&ladder=128x128,64x64,32x32",
		"video/x-yuv4mpeg", &upload)
	if err != nil {
		log.Fatal(err)
	}
	defer resp5.Body.Close()
	lpr := codec.NewLadderPacketReader(resp5.Body)
	served := make([][][]byte, 3)
	for {
		rung, idx, pkt, err := lpr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if idx != len(served[rung]) {
			log.Fatalf("rung %d packet %d arrived out of order", rung, idx)
		}
		served[rung] = append(served[rung], pkt)
	}
	rungs := make([]codec.Rung, 3)
	for i, sz := range []frame.Size{{W: 128, H: 128}, {W: 64, H: 64}, {W: 32, H: 32}} {
		rungs[i] = codec.Rung{Size: sz, Cfg: codec.Config{Qp: 16, FPS: 30, Searcher: &search.PBM{}}}
	}
	offlineRungs, _, err := codec.EncodeLadder(rungs, lframes)
	if err != nil {
		log.Fatal(err)
	}
	for r := range offlineRungs {
		if len(served[r]) != len(offlineRungs[r]) {
			log.Fatalf("rung %d: served %d packets, offline %d", r, len(served[r]), len(offlineRungs[r]))
		}
		for i := range offlineRungs[r] {
			if !bytes.Equal(served[r][i], offlineRungs[r][i]) {
				log.Fatalf("rung %d packet %d differs from the offline ladder", r, i)
			}
		}
		dec, err := codec.NewPacketDecoder(served[r][0])
		if err != nil {
			log.Fatal(err)
		}
		for _, pkt := range served[r][1:] {
			if _, err := dec.DecodePacket(pkt); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("\nsimulcast ladder: 3 rungs from one upload, every rung decodable and\n"+
		"byte-identical to the offline EncodeLadder ✓\nper-rung trailer: %s\n",
		resp5.Trailer.Get(server.TrailerRungs))
}
