package iotrace

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"iter"
	"os"
	"sync"
	"sync/atomic"

	"iotrace/internal/sim"
	"iotrace/internal/trace"
)

// A TraceSource decodes an on-disk trace exactly once and fans the
// validated records out to any number of consumers. Wide sweeps over
// file-backed workloads previously re-opened and re-decoded the trace
// once per scenario; a source amortizes that to a single decode-and-
// validate pass whose result every scenario replays from memory, so
// decode cost stays ~1x regardless of grid size.
//
// The decode is lazy (the constructor does no I/O) and guarded by a
// sync.Once, so concurrent first uses — e.g. sweep workers starting
// together — still perform one decode; a decode error is sticky and
// surfaces from every subsequent use. Records are chunk-buffered during
// the decode and treated as read-only afterwards, which is what makes
// sharing one slice across concurrently running simulators safe.
type TraceSource struct {
	path   string
	format Format // as configured; FormatAuto means detect on first use
	opts   trace.DecodeOptions

	once    sync.Once
	decodes atomic.Int64

	resolved Format    // concrete format after the decode
	recs     []*Record // all decoded records, comments included
	data     []*Record // validated data records (what simulators replay)
	pid      uint32
	endCPU   Ticks
	digest   string // sha256 of the raw file bytes (content address)
	err      error
}

// A SourceOption configures a TraceSource (and the facade import
// helpers built on it).
type SourceOption func(*TraceSource)

// WithFormat pins the source's trace format, bypassing auto-detection.
func WithFormat(format Format) SourceOption {
	return func(s *TraceSource) { s.format = format }
}

// WithCSVMapping sets the column mapping used when the source decodes
// as CSV. It does not by itself select the CSV format — combine with
// WithFormat(FormatCSV) unless detection will pick CSV anyway.
func WithCSVMapping(m CSVMapping) SourceOption {
	return func(s *TraceSource) { s.opts.CSV = m }
}

// WithDarshanRank restricts a Darshan-style import to a single MPI
// rank (plus rank −1 shared records) instead of merging every rank
// into one process stream.
func WithDarshanRank(rank int) SourceOption {
	return func(s *TraceSource) {
		s.opts.DarshanRankSet = true
		s.opts.DarshanRank = rank
	}
}

// NewTraceSource returns a decode-once source for the trace at path.
// The format is auto-detected from the extension and content unless
// pinned with WithFormat. The file is not touched until the source is
// first consumed.
func NewTraceSource(path string, opts ...SourceOption) *TraceSource {
	s := &TraceSource{path: path, format: FormatAuto, resolved: FormatAuto}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Path returns the path the source decodes.
func (s *TraceSource) Path() string { return s.path }

// Decodes reports how many times the underlying file has been
// successfully decoded: 0 before first use (and forever, if the single
// attempt fails — a failed decode produced nothing to count, and its
// sticky error surfaces from every consumer instead), 1 ever after. It
// exists so callers (and tests) can pin the decode-once contract.
func (s *TraceSource) Decodes() int64 { return s.decodes.Load() }

// load performs the single decode-and-validate pass, resolving the
// auto format against the file's extension and first bytes.
func (s *TraceSource) load() error {
	s.once.Do(func() {
		f, err := os.Open(s.path)
		if err != nil {
			s.err = fmt.Errorf("iotrace: trace source: %w", err)
			return
		}
		defer f.Close()
		// Content digest first: one sequential pass over the raw bytes,
		// then rewind for the decode. The digest is the trace's content
		// address — what scenario keys and the result cache hang off —
		// so it hashes the file exactly as stored, independent of format.
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			s.err = fmt.Errorf("iotrace: trace source: %w", err)
			return
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			s.err = fmt.Errorf("iotrace: trace source: %w", err)
			return
		}
		digest := hex.EncodeToString(h.Sum(nil))
		br := bufio.NewReaderSize(f, 64<<10)
		format := s.format
		if format == FormatAuto {
			// Peek keeps the sniffed prefix in the decode stream, so
			// detection costs no reopen. A short file truncates the
			// prefix; that is fine, sniffers look at the first line.
			prefix, _ := br.Peek(detectPeekBytes)
			format, err = trace.DetectFormat(s.path, prefix)
			if err != nil {
				s.err = fmt.Errorf("iotrace: trace source: %w", err)
				return
			}
		}
		s.resolved = format
		recs, err := trace.DecodeAll(br, format, s.opts)
		if err != nil {
			s.err = fmt.Errorf("iotrace: trace source %s: %w", s.path, err)
			return
		}
		data, pid, endCPU, err := sim.ValidateTrace(s.path, recs)
		if err != nil {
			s.err = err
			return
		}
		s.recs, s.data, s.pid, s.endCPU, s.digest = recs, data, pid, endCPU, digest
		s.decodes.Add(1)
	})
	return s.err
}

// detectPeekBytes is how much leading content auto-detection sniffs:
// enough for any first line the sniffers care about.
const detectPeekBytes = 4096

// Format returns the source's concrete decode format, triggering the
// one-time decode so that auto-detection has resolved.
func (s *TraceSource) Format() (Format, error) {
	if err := s.load(); err != nil {
		return s.resolved, err
	}
	return s.resolved, nil
}

// Records returns a re-iterable stream over every decoded record,
// comments included. Ranging triggers the one-time decode; after that,
// any number of consumers — including sweep workers ranging
// concurrently — replay the same in-memory records.
func (s *TraceSource) Records() iter.Seq2[*Record, error] {
	return func(yield func(*Record, error) bool) {
		if err := s.load(); err != nil {
			yield(nil, err)
			return
		}
		for _, r := range s.recs {
			if !yield(r, nil) {
				return
			}
		}
	}
}

// checked returns the validated simulator feed: comment-free data
// records, their process id, and the trace's total CPU demand.
func (s *TraceSource) checked() (data []*Record, pid uint32, endCPU Ticks, err error) {
	if err := s.load(); err != nil {
		return nil, 0, 0, err
	}
	return s.data, s.pid, s.endCPU, nil
}

// ContentDigest returns the hex sha256 of the source file's raw bytes —
// its content address. Two sources over byte-identical files share a
// digest regardless of path or name, which is what lets scenario keys
// (and iosimd's result cache) recognize the same trace uploaded twice.
// It triggers the one-time decode.
func (s *TraceSource) ContentDigest() (string, error) {
	if err := s.load(); err != nil {
		return "", err
	}
	return s.digest, nil
}

// identity returns the source's contribution to a workload fingerprint:
// the content digest plus everything that changes how those bytes
// decode (the resolved format and the importer options). Two sources
// are interchangeable simulator feeds iff their identities match.
func (s *TraceSource) identity() (string, error) {
	if err := s.load(); err != nil {
		return "", err
	}
	return fmt.Sprintf("src/%s/%v/%+v", s.digest, s.resolved, s.opts), nil
}
