package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
)

// nClients is the number of concurrent sessions the load generator keeps
// open: the host has 2 cores, so more would measure the client's own
// scheduling, not the fleet.
const nClients = 2

// frameInterval is camera rate: paced sessions send a frame every 1/30 s.
const frameInterval = time.Second / 30

// fleet is the set of daemons a serving workload runs against.
type fleet struct {
	backends []*daemon
	gateway  *daemon
	entry    string // base URL the clients post to
	runDir   string
}

func startFleet(d *workloadDef, binDir string) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.kill()
		}
	}()
	if err = os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	if f.runDir, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < d.Backends; i++ {
		b, err := startDaemon(fmt.Sprintf("vcodecd%d", i), filepath.Join(binDir, "vcodecd"), f.runDir,
			"-pool", strconv.Itoa(d.Pool), "-max-sessions", strconv.Itoa(nClients))
		if err != nil {
			return nil, err
		}
		f.backends = append(f.backends, b)
		urls = append(urls, b.base)
	}
	f.entry = urls[0]
	if d.Gateway {
		f.gateway, err = startDaemon("gateway", filepath.Join(binDir, "vcodec-gateway"), f.runDir,
			"-backends", strings.Join(urls, ","))
		if err != nil {
			return nil, err
		}
		f.entry = f.gateway.base
	}
	return f, nil
}

// kill is the failure path: every process group dies now.
func (f *fleet) kill() {
	for _, d := range f.all() {
		d.kill()
		<-d.done
		d.forget()
	}
	os.RemoveAll(f.runDir)
}

func (f *fleet) all() []*daemon {
	if f.gateway != nil {
		return append([]*daemon{f.gateway}, f.backends...)
	}
	return f.backends
}

// stop drains the gateway first, then the backends; every daemon must exit
// 0 on SIGTERM.
func (f *fleet) stop() error {
	var errs []error
	for _, d := range f.all() {
		errs = append(errs, d.stop())
	}
	os.RemoveAll(f.runDir)
	return errors.Join(errs...)
}

// peakRSS sums the daemons' resident-set high-water marks.
func (f *fleet) peakRSS() (float64, error) {
	var sum float64
	for _, d := range f.all() {
		mb, err := procStatusMB(d.pid(), "VmHWM")
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

func cpuOf(ds []*daemon) (float64, error) {
	var sum float64
	for _, d := range ds {
		s, err := procCPUSeconds(d.pid())
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// session is one client-side view of an /encode session.
type session struct {
	cell       int
	id         string
	start      time.Time
	wall       time.Duration
	frames     int
	bodyBytes  int64 // response body as relayed, record framing included
	payload    int   // coded bytes
	firstMs    float64
	frameMs    []float64 // paced: due → received, less lateMs; unpaced: request sent → received (gaps are the differences)
	lateMs     []float64 // paced: how late the generator itself woke for each frame
	arrivals   []time.Time
	psnr       float64
	traceID    string
	err        error // refused, errored, truncated or byte-mismatched
	serverSide *obs.Record
}

// sleepUntil returns at t, not a timer tick after it: an idle Go process
// wakes from time.Sleep about a millisecond late on this host, which a
// paced generator would add to every frame's latency. So it sleeps to
// within 2 ms and yields in a loop for the rest.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// runSession posts ref's clip to base and verifies what comes back. Unpaced,
// the whole clip is the request body and the server runs as fast as it can
// (closed loop: the client's next session starts when this one ends). Paced,
// frames go out over a full-duplex body on a fixed 30 fps schedule
// regardless of what has come back (open loop within the session), and each
// frame is timed from the instant it was due, so a stall counts against
// every frame it delays; only the generator's own late wake-up is taken off.
func runSession(client *http.Client, base string, ci int, ref *reference, upload []byte, paced bool, speed *hostSpeed) *session {
	s := &session{cell: ci, start: time.Now()}
	nFrames := len(ref.enc.packets) - 1
	var body io.Reader = bytes.NewReader(upload)
	var sent chan struct{}
	var pr *io.PipeReader
	if paced {
		hdr := bytes.Index(upload, []byte("FRAME\n"))
		per := (len(upload) - hdr) / nFrames
		s.lateMs = make([]float64, nFrames)
		var pw *io.PipeWriter
		pr, pw = io.Pipe()
		body, sent = pr, make(chan struct{})
		go func() {
			defer close(sent)
			defer pw.Close()
			free := s.start // when the sender was last free to wait for a due time
			for n := 0; n < nFrames; n++ {
				due := s.start.Add(time.Duration(n) * frameInterval)
				sleepUntil(due)
				// The generator's own lateness is how far it woke past the
				// due time it was waiting for. A write the fleet held up past
				// the next due time is the fleet's doing, not the generator's:
				// then nothing was waited for and nothing is excused.
				if free.Before(due) {
					s.lateMs[n] = ms(time.Since(due))
				}
				lo := hdr + n*per
				if n == 0 {
					lo = 0 // the stream header rides with frame 0
				}
				if _, err := pw.Write(upload[lo : hdr+(n+1)*per]); err != nil {
					return // the reader side reports why the session died
				}
				free = time.Now()
				speed.sample() // in the slack before the next frame is due
			}
		}()
	}
	fail := func(err error) *session {
		s.err = err
		if paced {
			pr.CloseWithError(err) // unblocks the sender
			<-sent
		}
		return s
	}
	resp, err := client.Post(base+ref.cell.query(), "video/x-yuv4mpeg", body)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fail(fmt.Errorf("refused: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg)))
	}
	cr := &countingReader{r: resp.Body}
	rd := codec.NewPacketReader(cr)
	s.frameMs = make([]float64, 0, nFrames)
	s.arrivals = make([]time.Time, 0, nFrames)
	var got [][]byte
	for {
		idx, data, err := rd.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		now := time.Now()
		got = append(got, data)
		s.payload += len(data)
		if idx == 0 {
			continue // header packet: latency is measured on frame packets
		}
		if paced {
			s.frameMs = append(s.frameMs, ms(now.Sub(s.start.Add(time.Duration(idx-1)*frameInterval))))
		} else {
			s.frameMs = append(s.frameMs, ms(now.Sub(s.start)))
		}
		if s.frames == 0 {
			s.firstMs = ms(now.Sub(s.start))
		}
		s.arrivals = append(s.arrivals, now)
		s.frames++
	}
	s.wall = time.Since(s.start)
	s.bodyBytes = cr.n
	if paced {
		<-sent
		// A frame the generator itself sent late was in the fleet's hands
		// for that much less of the time since it was due.
		for i := range min(len(s.frameMs), nFrames) {
			s.frameMs[i] -= s.lateMs[i]
		}
	}
	s.traceID = resp.Trailer.Get(obs.TraceIDHeader)
	s.psnr, _ = strconv.ParseFloat(resp.Trailer.Get("X-Vcodec-Psnr-Y"), 64)
	switch {
	case resp.Trailer.Get("X-Vcodec-Error") != "":
		s.err = fmt.Errorf("errored: %s", resp.Trailer.Get("X-Vcodec-Error"))
	case s.frames != nFrames || resp.Trailer.Get("X-Vcodec-Frames") != strconv.Itoa(nFrames):
		s.err = fmt.Errorf("truncated: %d of %d frames (trailer %q)", s.frames, nFrames, resp.Trailer.Get("X-Vcodec-Frames"))
	default:
		for i := range got {
			if !bytes.Equal(got[i], ref.enc.packets[i]) {
				s.err = fmt.Errorf("packet %d differs from the offline encoder", i)
				break
			}
		}
	}
	return s
}

// fetchRecord reads a finished session's flight record from the daemon's
// own debug endpoint (the gateway proxies the lookup to its backends).
func fetchRecord(client *http.Client, base, traceID string) (*obs.Record, error) {
	resp, err := client.Get(base + "/debug/vcodec/trace?id=" + traceID)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", traceID, resp.StatusCode)
	}
	var rec obs.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return nil, fmt.Errorf("trace %s: %w", traceID, err)
	}
	return &rec, nil
}

// load is one burst of sessions from nClients concurrent clients.
type load struct {
	sessions []*session
	wall     time.Duration
}

func (l *load) frames() (n int) {
	for _, s := range l.sessions {
		n += s.frames
	}
	return n
}

func (l *load) fps() float64 { return ratio(float64(l.frames()), l.wall.Seconds()) }

// runLoad drives base with nClients clients for about d. Unpaced clients
// run sessions back to back until the time is spent; paced clients run the
// whole number of camera-rate sessions that fits (at least one). Client k
// starts half-way round the cell cycle from client 0, so the two set out on
// different cells. With tr set, each session's server-side
// flight record is fetched as it ends and rebuilt as spans.
func (e *env) runLoad(base string, d time.Duration, tr *tracer) *load {
	clipDur := time.Duration(e.d.Frames) * frameInterval
	perClient := max(1, int(d/clipDur))
	var mu sync.Mutex
	var wg sync.WaitGroup
	l := &load{}
	start := time.Now()
	for k := 0; k < nClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			if e.d.Paced {
				// Independent cameras are not synchronised: spread the
				// clients' frame instants evenly over the frame interval.
				time.Sleep(time.Duration(k) * frameInterval / nClients)
			}
			for j := 0; ; j++ {
				if e.d.Paced && j >= perClient || !e.d.Paced && j > 0 && time.Since(start) >= d {
					return
				}
				ci := (k*len(e.d.Cells)/nClients + j) % len(e.d.Cells)
				ref := e.refs[ci]
				e.speed.sample()
				s := runSession(client, base, ci, ref, e.clips.y4m[ref.cell.Profile], e.d.Paced, e.speed)
				s.id = fmt.Sprintf("c%d.s%d", k, j)
				if tr != nil && s.err == nil {
					s.serverSide, s.err = fetchRecord(client, base, s.traceID)
					if s.err == nil {
						sessionSpans(tr, s)
					}
				}
				mu.Lock()
				l.sessions = append(l.sessions, s)
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	l.wall = time.Since(start)
	return l
}

// sessionSpans rebuilds one served session as spans: the session as the
// client saw it, one child per frame, and under each frame the phases the
// daemon's flight recorder timed. The recorder keeps durations, not start
// times, so each frame's phases are laid back to back ending at the instant
// the client received the packet.
func sessionSpans(tr *tracer, s *session) {
	root := tr.add("session", s.id, -1, s.start, s.wall, int64(s.frames))
	for _, ev := range s.serverSide.Events {
		if ev.Index >= len(s.arrivals) {
			continue
		}
		phases := []struct {
			name string
			ms   float64
		}{{"server.read", ev.ReadMs}, {"server.analysis", ev.AnalysisMs}, {"server.entropy", ev.EntropyMs}, {"server.emit", ev.EmitMs}}
		var total float64
		for _, p := range phases {
			total += p.ms
		}
		dur := func(m float64) time.Duration { return time.Duration(m * float64(time.Millisecond)) }
		at := s.arrivals[ev.Index].Add(-dur(total))
		fr := tr.add("server.frame", s.id, root, at, dur(total), 1)
		for _, p := range phases {
			tr.add(p.name, s.id, fr, at, dur(p.ms), 1)
			at = at.Add(dur(p.ms))
		}
	}
}

// measureServing is the untraced measurement of a serving workload.
func (e *env) measureServing(res *runResult, seconds float64) error {
	e.speed = &hostSpeed{}
	l := e.runLoad(e.fleet.entry, time.Duration(seconds*float64(time.Second)), nil)
	scale := e.speed.atLeast()
	q := newQuiet(len(e.d.Cells), !e.d.Paced)
	// Rate and distortion are taken once per cell, not per session: how
	// often each cell came round depends on timing, and the paper's axes
	// must not.
	perCell := make([]*session, len(e.d.Cells))
	var lateMs []float64
	for _, s := range l.sessions {
		res.Attempted++
		if s.err != nil {
			res.Failed++
			res.note("session %s (%v): %v", s.id, e.d.Cells[s.cell], s.err)
			continue
		}
		q.observe(s.cell, s.frameMs, nil, s.firstMs, s.wall)
		lateMs = append(lateMs, s.lateMs...)
		perCell[s.cell] = s
	}
	var psnr []float64
	payload, frames := 0, 0
	for _, s := range perCell {
		if s == nil {
			continue
		}
		psnr = append(psnr, s.psnr)
		payload += s.payload
		frames += s.frames
	}
	if q.n == 0 {
		return fmt.Errorf("every session failed")
	}
	rss, err := e.fleet.peakRSS()
	if err != nil {
		return err
	}
	if e.d.Paced {
		// Camera rate sets the throughput; what is delivered per second of
		// the whole run shows a fleet that fell behind.
		res.set("frames_per_s", l.fps())
	} else {
		// nClients sessions run side by side, each at its cell's rate.
		res.set("frames_per_s", nClients*float64(len(e.d.Cells)*e.d.Frames)/q.sessionSeconds()/scale)
		res.Extra["frames_per_s_whole_run"] = l.fps()
	}
	q.report(res, scale)
	res.set("bytes_per_frame", ratio(float64(payload), float64(frames)))
	res.set("psnr_y_db", mean(psnr))
	res.set("peak_rss_mb", rss)
	if e.d.Paced {
		late := percentile(lateMs, 0.95)
		res.Extra["sender_late_ms_p95"] = late
		// The p95 of a handful of samples is its single worst wake-up. A
		// late generator says the host was busy with something else; the
		// fleet's outputs are as correct as ever, so the run is flagged for
		// whoever reads the figures, not failed.
		if late > senderLateLimitMs && tailSupported(len(lateMs), 0.95) {
			res.Extra["flagged_invalid"] = 1
			res.note("INVALID: the paced generator woke %.2f ms late at p95 (limit %.1f ms): the host is too busy for camera-rate pacing, and frame latency, though corrected for each frame's own lateness, was taken on a disturbed fleet", late, senderLateLimitMs)
		}
	}
	return nil
}

// profileServing is the traced run of a serving workload: an untraced load,
// a traced one (each session's flight record fetched and rebuilt as spans)
// and, behind a gateway, the same paced sessions sent straight to a backend.
// The layer metrics come from the daemons' own signals — per-session flight
// records, /metrics deltas, /proc CPU time — so a signal that lies shows up
// as a mismatch against what the clients counted.
func (e *env) profileServing(res *runResult, tr *tracer, seconds float64) error {
	f := e.fleet
	client := &http.Client{}
	defer client.CloseIdleConnections()
	type snapshot struct {
		backends, gateway promSamples
		cpuB, cpuG        float64
	}
	snap := func() (s snapshot, err error) {
		s.backends = promSamples{}
		for _, b := range f.backends {
			p, err := scrape(client, b.base)
			if err != nil {
				return s, err
			}
			for k, v := range p {
				s.backends[k] += v
			}
		}
		if s.cpuB, err = cpuOf(f.backends); err != nil {
			return s, err
		}
		if f.gateway != nil {
			if s.gateway, err = scrape(client, f.gateway.base); err != nil {
				return s, err
			}
			s.cpuG, err = cpuOf([]*daemon{f.gateway})
		}
		return s, err
	}
	before, err := snap()
	if err != nil {
		return err
	}
	span := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	plain := e.runLoad(f.entry, span(0.4), nil)
	traced := e.runLoad(f.entry, span(0.6), tr)
	loads := []*load{plain, traced}
	var direct *load
	if f.gateway != nil {
		direct = e.runLoad(f.backends[0].base, 0, nil)
		loads = append(loads, direct)
	}
	after, err := snap()
	if err != nil {
		return err
	}

	var frames, relayedFrames int
	var relayedBytes int64
	var viaMs, directMs, lateMs []float64
	for _, l := range loads {
		for _, s := range l.sessions {
			res.Attempted++
			if s.err != nil {
				res.Failed++
				res.note("session %s (%v): %v", s.id, e.d.Cells[s.cell], s.err)
			}
			frames += s.frames
			lateMs = append(lateMs, s.lateMs...)
			if l == direct {
				directMs = append(directMs, s.frameMs...)
				continue
			}
			relayedFrames += s.frames
			relayedBytes += s.bodyBytes
			viaMs = append(viaMs, s.frameMs...)
		}
	}
	var read, wait, stall, analysis, entropy, emit, overhead []float64
	for _, s := range traced.sessions {
		if s.serverSide == nil {
			continue
		}
		overhead = append(overhead, s.firstMs-s.serverSide.FirstPacketMs)
		for _, ev := range s.serverSide.Events {
			read = append(read, ev.ReadMs)
			wait = append(wait, ev.QueueWaitMs)
			stall = append(stall, ev.StallMs)
			analysis = append(analysis, ev.AnalysisMs)
			entropy = append(entropy, ev.EntropyMs)
			emit = append(emit, ev.EmitMs)
		}
	}
	kframes := float64(frames) / 1000
	res.set("server.read_ms_per_frame", mean(read))
	res.set("server.queue_wait_ms_per_frame", mean(wait))
	res.set("server.stall_ms_p95", percentile(stall, 0.95))
	res.set("server.analysis_ms_per_frame", mean(analysis))
	res.set("server.entropy_ms_per_frame", mean(entropy))
	res.set("server.emit_ms_per_frame", mean(emit))
	res.set("server.http_overhead_ms", median(overhead))
	res.set("server.cpu_s_per_kframe", ratio(after.cpuB-before.cpuB, kframes))
	res.set("server.sessions_rejected", after.backends.delta(before.backends, "vcodecd_sessions_rejected_total"))
	res.set("server.sessions_failed", after.backends.delta(before.backends, "vcodecd_sessions_failed_total"))
	res.set("server.frames_total_mismatch", after.backends.delta(before.backends, "vcodecd_frames_total")-float64(frames))
	hits := after.backends.delta(before.backends, "vcodecd_frame_pool_hits_total")
	misses := after.backends.delta(before.backends, "vcodecd_frame_pool_misses_total")
	res.set("frame.pool_miss_share", ratio(misses, hits+misses))
	res.set("bench.trace_overhead_share", 1-ratio(traced.fps(), plain.fps()))
	if e.d.Paced {
		res.set("bench.sender_late_ms_p95", percentile(lateMs, 0.95))
	}
	if f.gateway != nil {
		g, g0 := after.gateway, before.gateway
		sessions := g.delta(g0, "gateway_sessions_total")
		res.set("gateway.route_ms_per_session", ratio(g.delta(g0, "gateway_route_ns_total")/1e6, sessions))
		res.set("gateway.relay_overhead_ms", median(viaMs)-median(directMs))
		res.set("gateway.attempts_per_session", ratio(g.delta(g0, "gateway_attempts_total"), sessions))
		res.set("gateway.retries", g.delta(g0, "gateway_retries_total"))
		res.set("gateway.cpu_s_per_kframe", ratio(after.cpuG-before.cpuG, float64(relayedFrames)/1000))
		res.set("gateway.bytes_relayed_mismatch", g.delta(g0, "gateway_bytes_relayed_total")-float64(relayedBytes))
	}
	return nil
}
