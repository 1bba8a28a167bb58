package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Format selects the encoding of a trace stream. The native formats
// (ASCII, binary, ASCII-raw) carry the same compressed wire records and
// differ only in field serialization; the importer formats (CSV,
// Darshan) are decode-only mappings of foreign logs onto Records. The
// format registry in decoder.go is the single source of format names,
// extensions, sniffers, and decoder constructors.
type Format int

const (
	// FormatASCII is the paper's permanent format: variable-length
	// printed decimal, one record per line, machine independent.
	FormatASCII Format = iota
	// FormatBinary is the fixed-width big-endian comparator format.
	FormatBinary
	// FormatASCIIRaw is ASCII with compression disabled: every field of
	// every record is present and absolute times are emitted as deltas
	// against nothing elided. It exists to measure what the compression
	// flags buy (a paper-motivated ablation).
	FormatASCIIRaw
	// FormatCSV imports site-log CSV tables via a CSVMapping
	// (decode-only; see csv.go).
	FormatCSV
	// FormatDarshan imports Darshan-style per-job counter logs,
	// synthesizing a record stream (decode-only; see darshan.go).
	FormatDarshan

	// FormatAuto is the detection sentinel: resolve the concrete format
	// from the file extension and content (DetectFormat) before
	// decoding.
	FormatAuto Format = -1
)

func (f Format) String() string {
	if f == FormatAuto {
		return "auto"
	}
	if spec := specOf(f); spec != nil {
		return spec.name
	}
	return "unknown(" + strconv.Itoa(int(f)) + ")"
}

// ParseFormat converts a format name ("auto", "ascii", "binary",
// "ascii-raw", "csv", "darshan", or a registered alias) to a Format.
func ParseFormat(s string) (Format, error) {
	name := strings.ToLower(s)
	if name == "auto" || name == "detect" {
		return FormatAuto, nil
	}
	for i := range formatRegistry {
		spec := &formatRegistry[i]
		if name == spec.name {
			return spec.format, nil
		}
		for _, a := range spec.aliases {
			if name == a {
				return spec.format, nil
			}
		}
	}
	return 0, fmt.Errorf("trace: unknown format %q (want %s)", s, strings.Join(FormatNames(), ", "))
}

// A Writer compresses and serializes records to an underlying stream.
type Writer struct {
	format Format
	bw     *bufio.Writer
	comp   *Compressor
	buf    []byte
	n      int64
}

// NewWriter returns a Writer emitting the given format.
func NewWriter(w io.Writer, format Format) *Writer {
	return &Writer{format: format, bw: bufio.NewWriterSize(w, 64<<10), comp: NewCompressor()}
}

// WriteRecord compresses and writes one record.
func (w *Writer) WriteRecord(r *Record) error {
	var wire wireRecord
	var err error
	if w.format == FormatASCIIRaw {
		// Raw mode bypasses elision: validate and emit every field.
		// Times are still the wire-format deltas so that raw and
		// compressed streams stay semantically identical.
		wire, err = w.comp.Compress(r)
		if err != nil {
			return err
		}
		if !wire.Type.IsComment() {
			wire = expandWire(wire, r)
		}
	} else {
		wire, err = w.comp.Compress(r)
		if err != nil {
			return err
		}
	}

	w.buf = w.buf[:0]
	switch w.format {
	case FormatASCII, FormatASCIIRaw:
		w.buf, err = appendASCII(w.buf, wire)
	case FormatBinary:
		w.buf, err = appendBinary(w.buf, wire)
	default:
		if spec := specOf(w.format); spec != nil && !spec.encode {
			err = fmt.Errorf("trace: format %v is decode-only (convert to a native format to write)", w.format)
		} else {
			err = fmt.Errorf("trace: unknown format %v", w.format)
		}
	}
	if err != nil {
		return err
	}
	if _, err := w.bw.Write(w.buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// expandWire undoes field elision on a compressed wire record, restoring
// every field from the full record r.
func expandWire(wire wireRecord, r *Record) wireRecord {
	wire.Comp = 0
	wire.Offset = uint64(r.Offset)
	wire.Length = uint64(r.Length)
	wire.OperationID = r.OperationID
	wire.FileID = r.FileID
	wire.ProcessID = r.ProcessID
	return wire
}

// Comment writes a comment record. The paper used comments to record
// fileId-to-name correspondences and trace provenance.
func (w *Writer) Comment(text string) error {
	return w.WriteRecord(&Record{Type: Comment, CommentText: text})
}

// Records returns the number of records written so far.
func (w *Writer) Records() int64 { return w.n }

// Flush writes any buffered data to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }

// A Reader parses and decompresses records from an underlying stream in
// one of the native formats. Foreign formats decode through NewDecoder,
// which also adapts Reader to the format-agnostic Decoder contract.
type Reader struct {
	format Format
	ls     lineScanner
	bin    *binaryDecoder
	dec    *Decompressor
	wire   wireRecord // reusable parse target
	rec    Record     // reusable decode target served by Next
	n      int64
}

// NewReader returns a Reader for the given native format.
func NewReader(r io.Reader, format Format) *Reader {
	rd := &Reader{format: format, dec: NewDecompressor()}
	switch format {
	case FormatBinary:
		rd.bin = &binaryDecoder{r: bufio.NewReaderSize(r, 64<<10)}
	default:
		rd.ls.init(r)
	}
	return rd
}

// lineScanner serves newline-terminated lines out of a bufio window,
// spilling into a reusable buffer only when a line exceeds it. It is
// the shared line substrate of the ASCII Reader and the line-oriented
// importers (CSV, Darshan): zero allocations per line in the common
// case.
type lineScanner struct {
	br   *bufio.Reader
	lbuf []byte // spill buffer for lines longer than the bufio window
	line []byte // the line most recently returned by readLine
}

func (s *lineScanner) init(r io.Reader) { s.br = bufio.NewReaderSize(r, 64<<10) }

// readLine returns the next line without its terminating newline,
// serving it straight out of the bufio window when it fits (the common
// case: wire records are tens of bytes). The returned slice — also
// retained in s.line for callers that hold index spans into it — is
// only valid until the next readLine call. io.EOF is returned only at a
// clean end of stream; a final line without a trailing newline is still
// a line.
func (s *lineScanner) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	switch err {
	case nil:
		s.line = line[:len(line)-1]
		return s.line, nil
	case io.EOF:
		if len(line) == 0 {
			return nil, io.EOF
		}
		s.line = line
		return s.line, nil
	case bufio.ErrBufferFull:
		s.lbuf = append(s.lbuf[:0], line...)
	default:
		return nil, err
	}
	for {
		line, err = s.br.ReadSlice('\n')
		s.lbuf = append(s.lbuf, line...)
		switch err {
		case nil:
			s.line = s.lbuf[:len(s.lbuf)-1]
			return s.line, nil
		case io.EOF:
			s.line = s.lbuf
			return s.line, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return nil, err
		}
	}
}

// NextInto decodes the next record directly into *dst, sharing one
// reusable wire record across calls. It is the common core of Next,
// ReadRecord, and ReadAll — and of the facade's chunk-arena streaming
// reader — letting callers that batch-allocate destinations skip a
// per-record copy.
func (r *Reader) NextInto(dst *Record) error {
	switch r.format {
	case FormatASCII, FormatASCIIRaw:
		line, err := r.ls.readLine()
		if err != nil {
			return err
		}
		if err := parseASCII(line, &r.wire); err != nil {
			return err
		}
	case FormatBinary:
		var err error
		if r.wire, err = r.bin.next(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("trace: unknown format %v", r.format)
	}
	if err := r.dec.DecompressInto(&r.wire, dst); err != nil {
		return err
	}
	r.n++
	return nil
}

// Next returns the next fully reconstructed record, or io.EOF at a clean
// end of stream. The returned record points at a buffer owned by the
// Reader and is overwritten by the following Next or ReadRecord call:
// the steady-state decode path allocates nothing (comment records are
// the exception — their text is freshly copied). Callers that retain
// records across calls should copy them, or use ReadRecord.
func (r *Reader) Next() (*Record, error) {
	if err := r.NextInto(&r.rec); err != nil {
		return nil, err
	}
	return &r.rec, nil
}

// ReadRecord returns the next fully reconstructed record as a freshly
// allocated value that remains valid indefinitely, or io.EOF at a clean
// end of stream.
func (r *Reader) ReadRecord() (*Record, error) {
	rec, err := r.Next()
	if err != nil {
		return nil, err
	}
	clone := *rec
	return &clone, nil
}

// Records returns the number of records read so far.
func (r *Reader) Records() int64 { return r.n }

// WriteAll writes every record of t to w in the given format and flushes.
func WriteAll(w io.Writer, format Format, t []*Record) error {
	tw := NewWriter(w, format)
	for _, rec := range t {
		if err := tw.WriteRecord(rec); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// readChunkRecords is the arena granularity of ReadAll (and the facade's
// streaming reader): records are cloned out of the Reader's reusable
// buffer in chunks of this many, cutting a per-record allocation to one
// per chunk.
const readChunkRecords = 1024

// ReadAll reads records until EOF. Comment records are included; callers
// that only want data records should filter with Record.IsComment.
// Records are batch-allocated in chunks, so a decoded trace costs two
// allocations per thousand records rather than one per record. It is
// DecodeAll with default options: importer formats work here too.
func ReadAll(r io.Reader, format Format) ([]*Record, error) {
	return DecodeAll(r, format, DecodeOptions{})
}

// fileNamePrefix is the comment convention for fileId-to-name mappings.
const fileNamePrefix = "file "

// FileNameComment formats the conventional comment body recording that
// fileID corresponds to name.
func FileNameComment(fileID uint32, name string) string {
	return fileNamePrefix + strconv.FormatUint(uint64(fileID), 10) + " = " + name
}

// ParseFileNameComment parses a comment body produced by FileNameComment.
// ok is false when the comment is not a file-name mapping.
func ParseFileNameComment(text string) (fileID uint32, name string, ok bool) {
	rest, found := strings.CutPrefix(text, fileNamePrefix)
	if !found {
		return 0, "", false
	}
	idStr, name, found := strings.Cut(rest, " = ")
	if !found {
		return 0, "", false
	}
	id, err := strconv.ParseUint(idStr, 10, 32)
	if err != nil {
		return 0, "", false
	}
	return uint32(id), name, true
}

// endPrefix is the comment convention recording a process's final CPU and
// wall clocks. The paper's tracer saw process exits via the standard Cray
// event packets; this comment carries the same information in-band.
const endPrefix = "end cpu="

// EndComment formats the conventional trace-end comment.
func EndComment(cpu, wall Ticks) string {
	return endPrefix + strconv.FormatInt(int64(cpu), 10) + " wall=" + strconv.FormatInt(int64(wall), 10)
}

// ParseEndComment parses a comment produced by EndComment. ok is false
// when the comment is not a trace-end marker.
func ParseEndComment(text string) (cpu, wall Ticks, ok bool) {
	rest, found := strings.CutPrefix(text, endPrefix)
	if !found {
		return 0, 0, false
	}
	cpuStr, wallStr, found := strings.Cut(rest, " wall=")
	if !found {
		return 0, 0, false
	}
	c, err1 := strconv.ParseInt(cpuStr, 10, 64)
	w, err2 := strconv.ParseInt(wallStr, 10, 64)
	if err1 != nil || err2 != nil || c < 0 || w < 0 {
		return 0, 0, false
	}
	return Ticks(c), Ticks(w), true
}

// EndTimes scans a trace for its end comment. When absent, it falls back
// to the last record's clocks (ok reports whether a marker was found).
func EndTimes(t []*Record) (cpu, wall Ticks, ok bool) {
	for i := len(t) - 1; i >= 0; i-- {
		r := t[i]
		if r.IsComment() {
			if c, w, found := ParseEndComment(r.CommentText); found {
				return c, w, true
			}
			continue
		}
		if cpu == 0 && wall == 0 {
			cpu, wall = r.ProcessTime, r.Start
		}
	}
	return cpu, wall, false
}
