package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

func formatsUnderTest() []Format {
	return []Format{FormatASCII, FormatBinary, FormatASCIIRaw}
}

func TestWriteReadRoundTripAllFormats(t *testing.T) {
	recs := genTrace(42, 3000)
	for _, f := range formatsUnderTest() {
		var buf bytes.Buffer
		if err := WriteAll(&buf, f, recs); err != nil {
			t.Fatalf("%v: WriteAll: %v", f, err)
		}
		got, err := ReadAll(&buf, f)
		if err != nil {
			t.Fatalf("%v: ReadAll: %v", f, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%v: got %d records, want %d", f, len(got), len(recs))
		}
		for i := range recs {
			if !reflect.DeepEqual(got[i], recs[i]) {
				t.Fatalf("%v: record %d mismatch:\n got %+v\nwant %+v", f, i, got[i], recs[i])
			}
		}
	}
}

func TestASCIISmallerThanBinary(t *testing.T) {
	// The paper's appendix claim: variable-length printed ASCII beats
	// fixed-width binary for these highly compressible traces.
	recs := genTrace(7, 5000)
	sizes := map[Format]int{}
	for _, f := range formatsUnderTest() {
		var buf bytes.Buffer
		if err := WriteAll(&buf, f, recs); err != nil {
			t.Fatal(err)
		}
		sizes[f] = buf.Len()
	}
	if sizes[FormatASCII] >= sizes[FormatBinary] {
		t.Errorf("ASCII (%d bytes) should be smaller than binary (%d bytes)",
			sizes[FormatASCII], sizes[FormatBinary])
	}
	if sizes[FormatASCII] >= sizes[FormatASCIIRaw] {
		t.Errorf("compressed ASCII (%d bytes) should beat raw ASCII (%d bytes)",
			sizes[FormatASCII], sizes[FormatASCIIRaw])
	}
}

func TestReaderCountsRecords(t *testing.T) {
	recs := genTrace(3, 100)
	var buf bytes.Buffer
	w := NewWriter(&buf, FormatASCII)
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != int64(len(recs)) {
		t.Errorf("writer count = %d, want %d", w.Records(), len(recs))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf, FormatASCII)
	n := 0
	for {
		_, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(recs) || r.Records() != int64(n) {
		t.Errorf("read %d records (reader says %d), want %d", n, r.Records(), len(recs))
	}
}

func TestASCIIFinalLineWithoutNewline(t *testing.T) {
	var buf bytes.Buffer
	recs := []*Record{
		mkRec(1, 1, 1, 0, 512, 0, 0, false),
		mkRec(1, 1, 2, 512, 512, 5, 5, false),
	}
	if err := WriteAll(&buf, FormatASCII, recs); err != nil {
		t.Fatal(err)
	}
	trimmed := strings.TrimSuffix(buf.String(), "\n")
	got, err := ReadAll(strings.NewReader(trimmed), FormatASCII)
	if err != nil {
		t.Fatalf("trace without trailing newline rejected: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
}

func TestBinaryTruncationIsUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, FormatBinary, []*Record{mkRec(1, 1, 1, 0, 512, 0, 0, false)}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for cut := 1; cut < len(b); cut++ {
		r := NewReader(bytes.NewReader(b[:cut]), FormatBinary)
		_, err := r.ReadRecord()
		if err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
		if err == io.EOF {
			t.Fatalf("truncation at %d bytes reported as clean EOF", cut)
		}
	}
	// Full record then clean EOF.
	r := NewReader(bytes.NewReader(b), FormatBinary)
	if _, err := r.ReadRecord(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("expected clean io.EOF, got %v", err)
	}
}

func TestASCIIParseErrors(t *testing.T) {
	bad := []string{
		"",                           // empty line
		"abc 0 0 0 0 0 0 0 0 0",      // non-numeric type
		"128 0 1 2 3",                // truncated
		"128 0 1 2 3 4 5 6 7 8 9 10", // trailing fields
		"128 9999999",                // compression overflow is a bad field later
	}
	for _, line := range bad {
		var w wireRecord
		if err := parseASCII([]byte(line), &w); err == nil {
			t.Errorf("parseASCII(%q) accepted", line)
		}
	}
}

func TestCommentRoundTripAllFormats(t *testing.T) {
	recs := []*Record{
		{Type: Comment, CommentText: "trace of venus, Cray Y-MP"},
		mkRec(1, 1, 1, 0, 512, 0, 0, false),
		{Type: Comment, CommentText: FileNameComment(1, "/scratch/venus/tape7")},
		mkRec(1, 1, 2, 512, 512, 5, 5, true),
		{Type: Comment, CommentText: ""}, // empty comment is legal
	}
	for _, f := range formatsUnderTest() {
		var buf bytes.Buffer
		if err := WriteAll(&buf, f, recs); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		got, err := ReadAll(&buf, f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("%v: comment roundtrip mismatch", f)
		}
	}
}

func TestCommentWithNewlineRejectedInASCII(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, FormatASCII)
	if err := w.Comment("two\nlines"); err == nil {
		t.Error("newline in ASCII comment accepted")
	}
	// Binary has a length prefix, so newlines are fine there.
	wb := NewWriter(&buf, FormatBinary)
	if err := wb.Comment("two\nlines"); err != nil {
		t.Errorf("newline in binary comment rejected: %v", err)
	}
}

func TestFileNameComments(t *testing.T) {
	text := FileNameComment(42, "/u/els/data file.bin")
	id, name, ok := ParseFileNameComment(text)
	if !ok || id != 42 || name != "/u/els/data file.bin" {
		t.Errorf("ParseFileNameComment(%q) = %d,%q,%v", text, id, name, ok)
	}
	for _, s := range []string{"not a mapping", "file x = y", "file 3 - y", ""} {
		if _, _, ok := ParseFileNameComment(s); ok {
			t.Errorf("ParseFileNameComment(%q) accepted", s)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Format
	}{
		{"ascii", FormatASCII}, {"TEXT", FormatASCII},
		{"binary", FormatBinary}, {"bin", FormatBinary},
		{"ascii-raw", FormatASCIIRaw}, {"raw", FormatASCIIRaw},
	} {
		got, err := ParseFormat(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseFormat(%q) = %v,%v want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted xml")
	}
	if FormatASCII.String() != "ascii" || FormatBinary.String() != "binary" {
		t.Error("Format.String names wrong")
	}
	if !strings.Contains(Format(99).String(), "unknown") {
		t.Error("unknown format String should say so")
	}
}

func TestBinaryOverflowChecks(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, FormatBinary)
	// Offset over 2^32 cannot be stored in the 4-byte binary field
	// (and is not block-aligned so the /512 escape does not apply).
	r := mkRec(1, 1, 1, int64(1)<<40|1, 512, 0, 0, false)
	if err := w.WriteRecord(r); err == nil {
		t.Error("binary writer accepted an offset overflowing 4 bytes")
	}
}
