package main

import (
	"testing"
	"time"
)

func TestJudgeWinRule(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}

	// Nine of ten pairs won and medians apart by more than the parent's
	// interquartile distance: a gain.
	change := append([]float64(nil), faster...)
	change[3] = 105
	if v := judge(parent, change, false, 0.1); v.status != "gain" || v.wins != 9 {
		t.Errorf("9/10 wins: status %q wins %d, want gain 9", v.status, v.wins)
	}
	// Eight of ten is not enough, however far the medians moved.
	change[5] = 105
	if v := judge(parent, change, false, 0.1); v.status == "gain" || v.wins != 8 {
		t.Errorf("8/10 wins: status %q wins %d, want no gain", v.status, v.wins)
	}
	// A tie counts for neither side.
	if v := judge(parent, parent, false, 0.1); v.wins != 0 || v.status != "within bound" {
		t.Errorf("identical runs: status %q wins %d", v.status, v.wins)
	}
	// Winning every pair by less than the parent's spread is no gain.
	nudged := make([]float64, len(parent))
	for i, x := range parent {
		nudged[i] = x - 0.5
	}
	if v := judge(parent, nudged, false, 0.1); v.status == "gain" {
		t.Errorf("a shift inside the parent's spread claimed a gain")
	}
	// Higher-is-better metrics win the other way.
	if v := judge(faster, parent, true, 0.1); v.status != "gain" {
		t.Errorf("higher-better: status %q, want gain", v.status)
	}
}

func TestJudgeUnresolvedAndRegressed(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{80, 130, 95, 120, 85, 125, 90, 115, 100, 105}
	if v := judge(parent, noisy, false, 0.1); v.status != "unresolved" {
		t.Errorf("spread beyond the bound: status %q, want unresolved", v.status)
	}
	slower := make([]float64, len(parent))
	for i, x := range parent {
		slower[i] = x * 1.2
	}
	if v := judge(parent, slower, false, 0.1); v.status != "regressed" {
		t.Errorf("20%% slower with a 10%% bound: status %q, want regressed", v.status)
	}
	if v := judge(parent, slower, false, 0.25); v.status != "within bound" {
		t.Errorf("20%% slower with a 25%% bound: status %q, want within bound", v.status)
	}
	if v := judge(parent, slower, false, -1); v.status != "no claim" {
		t.Errorf("no bound: status %q, want no claim", v.status)
	}
}

func TestAlternating(t *testing.T) {
	at := func(s int) runRecord { return runRecord{Started: time.Unix(int64(s), 0)} }
	a := []runRecord{at(1), at(4), at(5)}
	b := []runRecord{at(2), at(3), at(6)}
	if !alternating(a, b) {
		t.Error("A B B A A B should alternate pairwise")
	}
	if alternating([]runRecord{at(1), at(2)}, []runRecord{at(3), at(4)}) {
		t.Error("A A B B should not count as alternating")
	}
}

func TestMatchedPairs(t *testing.T) {
	run := func(seed uint64, seconds float64) runRecord { return runRecord{Seed: seed, Seconds: seconds} }
	a := []runRecord{run(1, 25), run(2, 25)}
	if err := matchedPairs(a, []runRecord{run(1, 25), run(2, 25)}); err != nil {
		t.Errorf("same seeds and lengths: %v", err)
	}
	if err := matchedPairs(a, []runRecord{run(1, 25), run(3, 25)}); err == nil {
		t.Error("a pair with different seeds was accepted")
	}
	if err := matchedPairs(a, []runRecord{run(1, 25), run(2, 10)}); err == nil {
		t.Error("a pair with different run lengths was accepted")
	}
}
