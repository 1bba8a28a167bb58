package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTicksConversions(t *testing.T) {
	cases := []struct {
		sec   float64
		ticks Ticks
	}{
		{0, 0},
		{1, TicksPerSecond},
		{0.5, 50000},
		{1e-5, 1}, // one tick is 10 us
		{60, TicksPerMinute},
		{-1, -TicksPerSecond},
	}
	for _, c := range cases {
		if got := TicksFromSeconds(c.sec); got != c.ticks {
			t.Errorf("TicksFromSeconds(%v) = %v, want %v", c.sec, got, c.ticks)
		}
		if got := c.ticks.Seconds(); got != c.sec {
			t.Errorf("(%v).Seconds() = %v, want %v", c.ticks, got, c.sec)
		}
	}
	if got := TicksFromMicroseconds(105); got != 10 {
		t.Errorf("TicksFromMicroseconds(105) = %v, want 10 (truncation)", got)
	}
}

func TestTicksRoundTripSeconds(t *testing.T) {
	f := func(ms int32) bool {
		ticks := Ticks(ms) * TicksPerMillisecond
		return TicksFromSeconds(ticks.Seconds()) == ticks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordTypeFlags(t *testing.T) {
	rt := LogicalRecord | WriteOp | AsyncOp
	if !rt.IsLogical() || !rt.IsWrite() || !rt.IsAsync() {
		t.Errorf("flags not recognized in %08b", rt)
	}
	if rt.IsRead() {
		t.Error("write record reported as read")
	}
	rd := LogicalRecord | ReadOp | SyncOp
	if !rd.IsRead() || rd.IsWrite() || rd.IsAsync() {
		t.Errorf("read flags wrong for %08b", rd)
	}
	if Comment.IsRead() {
		t.Error("comment record reported as read")
	}
	if !(LogicalRecord | MetaData).IsLogical() {
		t.Error("metadata logical record not logical")
	}
	if (LogicalRecord | MetaData).Kind() != MetaData {
		t.Error("Kind lost metadata bits")
	}
	if (PhysicalRecord | ReadAheadK).Kind() != ReadAheadK {
		t.Error("Kind lost readahead bits")
	}
	if !(LogicalRecord | CacheMiss).IsCacheMiss() {
		t.Error("cache miss flag not recognized")
	}
	if !(LogicalRecord | RAHit).IsRAHit() {
		t.Error("readahead hit flag not recognized")
	}
}

func TestRecordTypeString(t *testing.T) {
	cases := []struct {
		rt   RecordType
		want []string
	}{
		{LogicalRecord | WriteOp, []string{"log", "write", "sync"}},
		{LogicalRecord | AsyncOp, []string{"log", "read", "async"}},
		{PhysicalRecord | MetaData, []string{"phys", "meta"}},
		{Comment, []string{"comment"}},
		{LogicalRecord | CacheMiss | RAHit, []string{"miss", "rahit"}},
	}
	for _, c := range cases {
		s := c.rt.String()
		for _, w := range c.want {
			if !strings.Contains(s, w) {
				t.Errorf("(%#x).String() = %q, missing %q", uint16(c.rt), s, w)
			}
		}
	}
}

func TestRecordValidate(t *testing.T) {
	good := &Record{Type: LogicalRecord, Offset: 0, Length: 4096, Start: 10, Completion: 5, ProcessTime: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	bad := []*Record{
		{Type: LogicalRecord, Offset: -1},
		{Type: LogicalRecord, Length: -5},
		{Type: LogicalRecord, Start: -1},
		{Type: LogicalRecord, Completion: -1},
		{Type: LogicalRecord, ProcessTime: -1},
		{Type: LogicalRecord, CommentText: "oops"},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
	c := &Record{Type: Comment, CommentText: "hello"}
	if err := c.Validate(); err != nil {
		t.Errorf("comment record rejected: %v", err)
	}
}

func TestRecordEnd(t *testing.T) {
	r := &Record{Offset: 1024, Length: 512}
	if r.End() != 1536 {
		t.Errorf("End() = %d, want 1536", r.End())
	}
}

func TestRecordString(t *testing.T) {
	r := &Record{Type: LogicalRecord | WriteOp, ProcessID: 7, FileID: 3, Offset: 512, Length: 1024}
	if s := r.String(); !strings.Contains(s, "pid=7") || !strings.Contains(s, "file=3") {
		t.Errorf("String() = %q missing ids", s)
	}
	c := &Record{Type: Comment, CommentText: "note"}
	if s := c.String(); !strings.Contains(s, "note") {
		t.Errorf("comment String() = %q", s)
	}
}

func TestCompressionHas(t *testing.T) {
	c := NoOffset | NoLength
	if !c.Has(NoOffset) || !c.Has(NoLength) || c.Has(NoFileID) {
		t.Errorf("Has misbehaves for %08b", c)
	}
	if !c.Has(NoOffset | NoLength) {
		t.Error("Has should accept multi-bit masks")
	}
	if c.Has(NoOffset | NoFileID) {
		t.Error("Has must require all bits")
	}
}
