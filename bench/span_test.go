package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "request", start: ms(0), end: ms(100), parent: -1},
		// Two concurrent children overlapping on [20,30]: they cover
		// [10,50] together, 40 ms of the parent.
		{name: "child", start: ms(10), end: ms(30), parent: 0},
		{name: "child", start: ms(20), end: ms(50), parent: 0},
		// A grandchild inside the first child.
		{name: "leaf", start: ms(12), end: ms(18), parent: 1},
		// A child running past its parent counts only its clipped part.
		{name: "late", start: ms(90), end: ms(120), parent: 0},
		// An unclosed span is ignored.
		{name: "open", start: ms(60), end: -1, parent: 0},
	}
	want := map[string]struct {
		self  time.Duration
		count int
	}{
		"request": {ms(100 - 40 - 10), 1},
		"child":   {ms(20-6) + ms(30), 2},
		"leaf":    {ms(6), 1},
		"late":    {ms(30), 1},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d layers, want %d: %+v", len(got), len(want), got)
	}
	for _, lt := range got {
		w, ok := want[lt.name]
		if !ok || lt.self != w.self || lt.count != w.count {
			t.Errorf("%s: self %v count %d, want %v count %d", lt.name, lt.self, lt.count, w.self, w.count)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].self > got[i-1].self {
			t.Errorf("layers not in descending self-time order: %+v", got)
		}
	}
}

func TestUnionLength(t *testing.T) {
	iv := func(a, b int) [2]time.Duration { return [2]time.Duration{time.Duration(a), time.Duration(b)} }
	for _, c := range []struct {
		ivs  [][2]time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[][2]time.Duration{iv(0, 10)}, 10},
		{[][2]time.Duration{iv(5, 10), iv(0, 3)}, 8},
		{[][2]time.Duration{iv(0, 10), iv(2, 4), iv(8, 15)}, 15},
		{[][2]time.Duration{iv(0, 5), iv(5, 7)}, 7},
	} {
		if got := unionLength(c.ivs); got != c.want {
			t.Errorf("unionLength(%v) = %v, want %v", c.ivs, got, c.want)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	if id != -1 || r.end(id) != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
}
