package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"aurora/internal/isa"
)

// Binary trace format: a fixed header followed by fixed-size records.
// Each record stores the PC, the raw instruction word (re-decoded on read),
// the effective memory address, and the control-flow outcome — everything
// the timing simulator needs, in 17 bytes.

var magic = [4]byte{'A', 'U', 'R', '3'}

const formatVersion = 1

// Writer serialises a trace to an io.Writer.
type Writer struct {
	w   *bufio.Writer
	n   uint64
	err error
}

// NewWriter creates a trace writer and emits the header.
func NewWriter(w io.Writer) *Writer {
	tw := &Writer{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := tw.w.Write(magic[:]); err != nil {
		tw.err = err
		return tw
	}
	tw.err = tw.w.WriteByte(formatVersion)
	return tw
}

// Write appends one record.
func (tw *Writer) Write(r Record) error {
	if tw.err != nil {
		return tw.err
	}
	word, err := isa.Encode(r.SI.In)
	if err != nil {
		tw.err = fmt.Errorf("trace: unencodable instruction at %#x: %w", r.PC, err)
		return tw.err
	}
	var buf [17]byte
	binary.LittleEndian.PutUint32(buf[0:], r.PC)
	binary.LittleEndian.PutUint32(buf[4:], word)
	binary.LittleEndian.PutUint32(buf[8:], r.MemAddr)
	binary.LittleEndian.PutUint32(buf[12:], r.Target)
	if r.Taken {
		buf[16] = 1
	}
	if _, err := tw.w.Write(buf[:]); err != nil {
		tw.err = err
		return err
	}
	tw.n++
	return nil
}

// Flush flushes buffered records.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.w.Flush()
}

// Count returns the number of records written.
func (tw *Writer) Count() uint64 { return tw.n }

// Reader deserialises a trace written by Writer, implementing Stream.
// Each distinct instruction word is decoded once and interned; every later
// dynamic occurrence reuses the predecoded StaticInstr, so replaying a
// multi-million-instruction trace decodes only the static footprint.
type Reader struct {
	r      *bufio.Reader
	decode map[uint32]*StaticInstr
	err    error
}

// NewReader creates a trace reader, validating the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	if hdr[4] != formatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr[4])
	}
	return &Reader{r: br, decode: make(map[uint32]*StaticInstr)}, nil
}

// static interns the predecoded form of one instruction word.
func (tr *Reader) static(word uint32) (*StaticInstr, error) {
	if si, ok := tr.decode[word]; ok {
		return si, nil
	}
	in, err := isa.Decode(word)
	if err != nil {
		return nil, err
	}
	si := new(StaticInstr)
	*si = NewStatic(in)
	tr.decode[word] = si
	return si, nil
}

// NextBatch decodes the next records into buf; it returns 0 at clean EOF
// or after an error, which Err then reports.
func (tr *Reader) NextBatch(buf []Record) int {
	n := 0
	for ; n < len(buf) && tr.err == nil; n++ {
		var b [17]byte
		if _, err := io.ReadFull(tr.r, b[:]); err != nil {
			if err != io.EOF {
				tr.err = err
			}
			break
		}
		si, err := tr.static(binary.LittleEndian.Uint32(b[4:]))
		if err != nil {
			tr.err = err
			break
		}
		buf[n] = Record{
			SI:      si,
			PC:      binary.LittleEndian.Uint32(b[0:]),
			MemAddr: binary.LittleEndian.Uint32(b[8:]),
			Target:  binary.LittleEndian.Uint32(b[12:]),
			Taken:   b[16] == 1,
		}
	}
	return n
}

// Err reports a terminal decode or IO error.
func (tr *Reader) Err() error { return tr.err }
