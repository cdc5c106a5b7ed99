package frame

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestY4MRoundTrip(t *testing.T) {
	a := NewFrame(SQCIF)
	a.FillYUV(50, 100, 150)
	b := NewFrame(SQCIF)
	for i := range b.Y.Pix {
		b.Y.Pix[i] = uint8(i)
	}
	var buf bytes.Buffer
	if err := WriteY4M(&buf, []*Frame{a, b}, 30, 1); err != nil {
		t.Fatal(err)
	}
	s, err := ReadY4M(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Frames) != 2 {
		t.Fatalf("read %d frames", len(s.Frames))
	}
	if !s.Frames[0].Equal(a) || !s.Frames[1].Equal(b) {
		t.Fatal("Y4M round trip altered frames")
	}
	if s.FPS() != 30 {
		t.Fatalf("FPS = %v", s.FPS())
	}
}

func TestReadY4MRejectsBadInput(t *testing.T) {
	cases := []string{
		"MPEG4 W16 H16\nFRAME\n",          // bad magic
		"YUV4MPEG2 W16 H16 C444\nFRAME\n", // unsupported chroma
		"YUV4MPEG2 W15 H16\n",             // odd width
		"YUV4MPEG2 W0 H16\n",              // zero width
		"YUV4MPEG2 W16 H16\nNOTFRAME\n",   // bad marker
		"YUV4MPEG2 W16 H16\nFRAME\nshort", // truncated samples
	}
	for _, in := range cases {
		if _, err := ReadY4M(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestReadY4MEmptySequence(t *testing.T) {
	s, err := ReadY4M(strings.NewReader("YUV4MPEG2 W16 H16 F25:1 Ip A1:1 C420jpeg\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Frames) != 0 {
		t.Fatal("phantom frames parsed")
	}
	if s.FPS() != 25 {
		t.Fatalf("FPS = %v", s.FPS())
	}
}

func TestReadY4MNoFPS(t *testing.T) {
	s, err := ReadY4M(strings.NewReader("YUV4MPEG2 W16 H16\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.FPS() != 0 {
		t.Fatalf("FPS = %v, want 0 for missing F tag", s.FPS())
	}
}

func TestY4MReaderStreamsIncrementally(t *testing.T) {
	// Write two frames, then read them back one at a time through the
	// streaming reader; a partial pipe must deliver frame 0 before the
	// writer has produced frame 1.
	frames := []*Frame{NewFrame(Size{16, 16}), NewFrame(Size{16, 16})}
	frames[0].Y.Pix[0] = 11
	frames[1].Y.Pix[0] = 22
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(WriteY4M(pw, frames, 30, 1))
	}()
	y, err := NewY4MReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	if y.Size() != (Size{16, 16}) || y.FPS() != 30 {
		t.Fatalf("header: size %v fps %v", y.Size(), y.FPS())
	}
	for i, want := range frames {
		got, err := y.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("frame %d differs", i)
		}
	}
	if _, err := y.ReadFrame(); err != io.EOF {
		t.Fatalf("EOF expected, got %v", err)
	}
}

// fillReader yields an endless run of one byte.
type fillReader byte

func (r fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestY4MLinesBounded feeds a header line, and then a FRAME line, that
// never ends: each must fail once the line outgrows the reader's buffer,
// having allocated a bounded amount — not the 8 MiB the client sent.
func TestY4MLinesBounded(t *testing.T) {
	const tail = 8 << 20
	for _, c := range []struct{ name, prefix string }{
		{"header", "YUV4MPEG2 W16 H16 "},
		{"frame-line", "YUV4MPEG2 W16 H16\nFRAME "},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := io.MultiReader(strings.NewReader(c.prefix), io.LimitReader(fillReader('x'), tail))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			y, err := NewY4MReader(in)
			var f *Frame
			if err == nil {
				f, err = y.ReadFrame()
			}
			runtime.ReadMemStats(&after)
			if err == nil || f != nil {
				t.Fatalf("an endless %s line was accepted (frame %v)", c.name, f)
			}
			if !strings.Contains(err.Error(), "longer than") {
				t.Errorf("error %q does not name the line bound", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
				t.Errorf("rejecting the line allocated %d bytes, want < 64 KiB", got)
			}
		})
	}
}

// fuzzFrameCap bounds the frame FuzzY4MReader lets the reader allocate:
// a header may declare up to 16384×16384 (~400 MB a frame), which the
// reader would draw before finding the input short.
const fuzzFrameCap = 4 << 20

// FuzzY4MReader holds the streaming reader to its contract on arbitrary
// input (seed corpus: testdata/fuzz/FuzzY4MReader): no panic, and every
// ReadFrame returns either an error and no frame, or a frame of the
// header's size whose samples the input actually held. Frames are
// released as they are read, so the pooled path is the one fuzzed.
func FuzzY4MReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		y, err := NewY4MReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		s := y.Size()
		if s.W <= 0 || s.H <= 0 || s.W%2 != 0 || s.H%2 != 0 || s.W > 1<<14 || s.H > 1<<14 {
			t.Fatalf("header accepted size %v", s)
		}
		frameBytes := s.W * s.H * 3 / 2
		if frameBytes > fuzzFrameCap {
			return
		}
		for n := 0; ; n++ {
			f, err := y.ReadFrame()
			if err != nil {
				if f != nil {
					t.Fatalf("frame %d: error %v with a frame", n, err)
				}
				return
			}
			if f.Size() != s || f.Cb.W != s.W/2 || f.Cb.H != s.H/2 || f.Cr.W != s.W/2 || f.Cr.H != s.H/2 {
				t.Fatalf("frame %d: %v/%dx%d, header %v", n, f.Size(), f.Cb.W, f.Cb.H, s)
			}
			if (n+1)*(frameBytes+len("FRAME\n")) > len(data) {
				t.Fatalf("frame %d read from %d input bytes", n, len(data))
			}
			f.Release()
		}
	})
}

// loopReader serves buf over and over, without allocating.
type loopReader struct {
	buf []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.buf[r.off:])
	r.off = (r.off + n) % len(r.buf)
	return n, nil
}

// BenchmarkY4MReadFrame reads QCIF frames off an endless in-memory stream
// and hands each back, as vcodecd's session loop does: in steady state
// the reader allocates nothing per frame.
func BenchmarkY4MReadFrame(b *testing.B) {
	var clip bytes.Buffer
	if err := WriteY4M(&clip, []*Frame{NewFrame(QCIF)}, 30, 1); err != nil {
		b.Fatal(err)
	}
	header, rec, _ := bytes.Cut(clip.Bytes(), []byte("\n"))
	y, err := NewY4MReader(io.MultiReader(bytes.NewReader(append(header, '\n')), &loopReader{buf: rec}))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		f, err := y.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}
