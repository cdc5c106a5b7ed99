package frame

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Y4MStream holds a parsed YUV4MPEG2 sequence.
type Y4MStream struct {
	Frames []*Frame
	FPSNum int
	FPSDen int
}

// FPS returns the frame rate as a float (0 if the header omitted it).
func (s *Y4MStream) FPS() float64 {
	if s.FPSDen == 0 {
		return 0
	}
	return float64(s.FPSNum) / float64(s.FPSDen)
}

// Y4MReader parses a YUV4MPEG2 stream incrementally: the header is read
// by NewY4MReader and each ReadFrame returns the next picture as soon as
// its samples are available. This is the streaming counterpart of ReadY4M
// — a network server can start encoding frame 0 while frame 1 is still in
// flight on the wire.
//
// Whatever the input, the reader holds no more than its buffer and the
// frame it is filling: the header line and every FRAME line must fit the
// buffer (maxY4MLine bytes, newline included), and a longer one is an
// error rather than a buffer grown to hold it.
type Y4MReader struct {
	br     *bufio.Reader
	size   Size
	fpsNum int
	fpsDen int
	frames int
}

// maxY4MLine bounds the Y4M header and FRAME lines: it is the reader's
// bufio buffer size, so a line is scanned in place (bufio.Reader.ReadSlice)
// and never copied. Real headers run under a hundred bytes.
const maxY4MLine = 4096

// readLine returns the next newline-terminated line of br, valid until the
// next read. A line that does not fit br's buffer is an error: an upload
// whose line never ends costs the buffer, not the upload.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, fmt.Errorf("line longer than %d bytes", br.Size())
	}
	return line, err
}

// NewY4MReader parses the stream header of r. Only 4:2:0 chroma (C420,
// C420jpeg, C420mpeg2, C420paldv or no C tag) is accepted.
func NewY4MReader(r io.Reader) (*Y4MReader, error) {
	br := bufio.NewReaderSize(r, maxY4MLine)
	header, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("frame: reading Y4M header: %w", err)
	}
	fields := strings.Fields(string(header))
	if len(fields) == 0 || fields[0] != "YUV4MPEG2" {
		return nil, fmt.Errorf("frame: not a YUV4MPEG2 stream")
	}
	var w, h, fn, fd int
	for _, f := range fields[1:] {
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case 'W':
			if w, err = strconv.Atoi(f[1:]); err != nil {
				return nil, fmt.Errorf("frame: bad Y4M width %q", f)
			}
		case 'H':
			if h, err = strconv.Atoi(f[1:]); err != nil {
				return nil, fmt.Errorf("frame: bad Y4M height %q", f)
			}
		case 'F':
			parts := strings.SplitN(f[1:], ":", 2)
			if len(parts) == 2 {
				fn, _ = strconv.Atoi(parts[0])
				fd, _ = strconv.Atoi(parts[1])
			}
		case 'C':
			sub := f[1:]
			if sub != "420" && sub != "420jpeg" && sub != "420mpeg2" && sub != "420paldv" {
				return nil, fmt.Errorf("frame: unsupported Y4M chroma %q (only 4:2:0)", f)
			}
		}
	}
	if w <= 0 || h <= 0 || w%2 != 0 || h%2 != 0 || w > 1<<14 || h > 1<<14 {
		return nil, fmt.Errorf("frame: bad Y4M dimensions %dx%d", w, h)
	}
	return &Y4MReader{br: br, size: Size{W: w, H: h}, fpsNum: fn, fpsDen: fd}, nil
}

// Size returns the stream's frame format.
func (y *Y4MReader) Size() Size { return y.size }

// FPS returns the frame rate from the header (0 if omitted).
func (y *Y4MReader) FPS() float64 {
	if y.fpsDen == 0 {
		return 0
	}
	return float64(y.fpsNum) / float64(y.fpsDen)
}

// ReadFrame returns the next frame, or io.EOF at a clean end of stream. A
// failed read returns no frame.
//
// The frame's planes come from the size-bucketed plane pools (no apron),
// and the FRAME marker is scanned in the reader's buffer, so a steady
// stream whose frames are handed back allocates nothing per frame. The
// caller owns the frame: it may keep it (the GC reclaims it like any
// other), or recycle it with (*Frame).Release once nothing reads it —
// vcodecd does so when the encoder's source lifetime ends (see
// codec.Encoder).
func (y *Y4MReader) ReadFrame() (*Frame, error) {
	line, err := readLine(y.br)
	if err == io.EOF && len(line) == 0 {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("frame: reading FRAME marker of frame %d: %w", y.frames, err)
	}
	if !bytes.HasPrefix(line, []byte("FRAME")) {
		return nil, fmt.Errorf("frame: expected FRAME marker, got %q", bytes.TrimSpace(line))
	}
	f := GetFramePadded(y.size, 0, 0)
	for _, p := range [...]*Plane{f.Y, f.Cb, f.Cr} {
		if _, err := io.ReadFull(y.br, p.Pix[:p.W*p.H]); err != nil {
			f.Release() // partly filled, never handed out
			return nil, fmt.Errorf("frame: reading frame %d samples: %w", y.frames, err)
		}
	}
	y.frames++
	return f, nil
}

// ReadY4M parses a YUV4MPEG2 stream with 4:2:0 chroma (C420, C420jpeg,
// C420mpeg2 or no C tag). It accepts the streams written by WriteY4M and
// by common tools (ffmpeg, x264).
func ReadY4M(r io.Reader) (*Y4MStream, error) {
	y, err := NewY4MReader(r)
	if err != nil {
		return nil, err
	}
	stream := &Y4MStream{FPSNum: y.fpsNum, FPSDen: y.fpsDen}
	for {
		f, err := y.ReadFrame()
		if err == io.EOF {
			return stream, nil
		}
		if err != nil {
			return nil, err
		}
		stream.Frames = append(stream.Frames, f)
	}
}
