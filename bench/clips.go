package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/server"
	"repro/internal/video"
)

// cell is one operating point of a workload: content × quantiser × motion
// estimator. The paper's cost swings 13 → 800 points/MB across exactly
// these axes, so a workload is a set of cells, never one corner.
type cell struct {
	Profile video.Profile
	Qp      int
	ME      string // core.SearcherByName vocabulary: "acbm" | "fsbm"
}

func (c cell) String() string {
	return fmt.Sprintf("%s@%d/%s", strings.ReplaceAll(strings.ToLower(c.Profile.String()), " ", ""), c.Qp, c.ME)
}

// config is the cell's codec configuration with a fresh searcher (ACBM
// accumulates per-instance statistics, so instances are never shared).
func (c cell) config() codec.Config {
	s, err := core.SearcherByName(c.ME)
	if err != nil {
		panic(err) // the cell tables below are the only source of names
	}
	return codec.Config{Qp: c.Qp, Searcher: s}
}

// query is the cell as vcodecd /encode parameters. qoslevel=0 pins the
// session out of the adaptive QoS loop, so every stream is byte-verifiable
// and the controller cannot change the work mid-run.
func (c cell) query() string {
	return fmt.Sprintf("/encode?me=%s&qp=%d&qoslevel=0", c.ME, c.Qp)
}

func cross(profiles []video.Profile, qps []int, me string) []cell {
	var out []cell
	for _, p := range profiles {
		for _, q := range qps {
			out = append(out, cell{p, q, me})
		}
	}
	return out
}

// adaptiveCells are where the paper says ACBM lives: 12–95 points/MB.
var adaptiveCells = cross(video.Profiles, []int{30, 24}, "acbm")

// workloadDef is a workload as data: its inputs and how the in-process
// encode is driven. Serving workloads add daemons (serve.go) on top.
type workloadDef struct {
	Name string
	// Why records what the workload is for: which layer does most of the
	// work here and little elsewhere.
	Why    string
	Size   frame.Size
	Frames int // per clip
	Cells  []cell
	// Procs is the GOMAXPROCS and core count the workload needs; the run
	// is refused, not silently measured, on a smaller host.
	Procs int
	// Workers/Pipeline/Packets drive the in-process encode: the serial
	// EncodeFrame loop, or EncodeStream emitting packets.
	Workers  int
	Pipeline bool
	Packets  bool
	// Backends > 0 makes it a serving workload with that many vcodecd;
	// Gateway puts vcodec-gateway in front; Paced sends at 30 fps.
	Backends int
	Pool     int
	Gateway  bool
	Paced    bool
}

var workloadDefs = []workloadDef{
	{
		Name: "adaptive_serial",
		Why:  "ACBM where the paper says it lives (12-95 points/MB): search is a few % of a frame, so the DCT/recon/half-pel/entropy floor is the cost and a SAD-kernel change barely shows",
		Size: frame.QCIF, Frames: 60, Cells: adaptiveCells, Procs: 1, Workers: 1,
	},
	{
		Name: "fullsearch_serial",
		Why:  "FSBM and the degenerate ACBM corner (~800 points/MB): the capped SAD kernel and per-candidate call chain are ~75% of a frame; also the paper's FSBM baseline",
		Size: frame.QCIF, Frames: 80, Procs: 1, Workers: 1,
		Cells: []cell{{video.Foreman, 16, "fsbm"}, {video.Carphone, 16, "fsbm"}, {video.Foreman, 16, "acbm"}},
	},
	{
		Name: "parallel_cif",
		Why:  "same layers under Workers=2 + Pipeline on cheap CIF macroblocks: wavefront scheduling, task hand-off and the writer goroutine are largest relative to work",
		Size: frame.CIF, Frames: 24, Procs: 2, Workers: 2, Pipeline: true, Packets: true,
		Cells: []cell{{video.Carphone, 24, "acbm"}, {video.TableTennis, 30, "acbm"}, {video.MissAmerica, 24, "acbm"}, {video.Foreman, 24, "acbm"}},
	},
	// The serving workloads' in-process driver mirrors what vcodecd does
	// per session (shared pool of 2, pipelined packets); it produces the
	// byte-exact reference and the in-process layer profile.
	{
		Name: "serve_burst",
		Why:  "one vcodecd, 2 closed-loop clients posting whole clips unpaced: Y4M ingest, shared pool, packet framing, flush-per-packet and HTTP are a large share of a 0.6 ms frame",
		Size: frame.QCIF, Frames: 60, Cells: adaptiveCells, Procs: 2, Workers: 2, Pipeline: true, Packets: true,
		Backends: 1, Pool: 2,
	},
	// One clip at two quantisers: fleet_live isolates relay hops and flush
	// behaviour from encode speed, so it needs no spread of content, only
	// every session repeated often enough in a run (ten times) that each
	// frame position's least latency is found.
	{
		Name: "fleet_live",
		Why:  "gateway + 2 backends, 2 clients paced at 30 fps (open loop within a session): per-frame latency at camera rate, CPU mostly idle, isolates relay hops and flush behaviour",
		Size: frame.QCIF, Frames: 60, Procs: 2, Workers: 2, Pipeline: true, Packets: true,
		Cells:    []cell{{video.Carphone, 24, "acbm"}, {video.Carphone, 30, "acbm"}},
		Backends: 2, Pool: 1, Gateway: true, Paced: true,
	},
}

func defByName(name string) (*workloadDef, bool) {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i], true
		}
	}
	return nil, false
}

// clipSet is a workload's input: one clip per distinct profile, built once
// in set-up. Generation costs 5–15× the encode itself, so it never sits
// inside a timed region. The seed reaches only this generator; the program
// under test receives frames, Y4M bytes and HTTP requests.
type clipSet struct {
	frames map[video.Profile][]*frame.Frame
	y4m    map[video.Profile][]byte
	genDur time.Duration
	genN   int
}

func buildClips(d *workloadDef, seed uint64, withY4M bool) (*clipSet, error) {
	cs := &clipSet{frames: map[video.Profile][]*frame.Frame{}, y4m: map[video.Profile][]byte{}}
	for _, c := range d.Cells {
		if _, ok := cs.frames[c.Profile]; ok {
			continue
		}
		t := time.Now()
		fr := video.Generate(c.Profile, d.Size, d.Frames, seed)
		cs.genDur += time.Since(t)
		cs.genN += len(fr)
		cs.frames[c.Profile] = fr
		if withY4M {
			var buf bytes.Buffer
			if err := frame.WriteY4M(&buf, fr, 30, 1); err != nil {
				return nil, err
			}
			cs.y4m[c.Profile] = buf.Bytes()
		}
	}
	return cs, nil
}

// sessionConfig is the configuration a pinned-level-0 vcodecd session of
// cell c encodes with; server.ApplyQosLevel is the single source of truth
// for what a level means.
func sessionConfig(c cell) codec.Config { return server.ApplyQosLevel(c.config(), 0) }
