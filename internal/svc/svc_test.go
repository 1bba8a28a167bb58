package svc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFlightCoalescesConcurrentCalls(t *testing.T) {
	var f Flight
	var runs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	vals := make([][]byte, n)
	joined := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, j, err := f.Do("k", func() ([]byte, error) {
				close(started)
				runs.Add(1)
				<-release
				return []byte("result"), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], joined[i] = v, j
		}(i)
	}
	<-started
	// The leader is parked inside fn; hold it there until every other
	// caller is provably waiting on the flight, so the coalescing
	// assertion below is deterministic rather than scheduling luck.
	for {
		f.mu.Lock()
		waiting := f.m["k"].waiters.Load()
		f.mu.Unlock()
		if waiting == n-1 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	var leaders int
	for i := range vals {
		if string(vals[i]) != "result" {
			t.Errorf("caller %d got %q", i, vals[i])
		}
		if !joined[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d callers claim to have run fn, want 1", leaders)
	}

	// A completed call is forgotten: the next Do runs fresh.
	_, j, _ := f.Do("k", func() ([]byte, error) { runs.Add(1); return nil, nil })
	if j || runs.Load() != 2 {
		t.Error("completed flight was not forgotten")
	}
}

func TestFlightDistinctKeysRunIndependently(t *testing.T) {
	var f Flight
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _ = f.Do(fmt.Sprintf("k%d", i), func() ([]byte, error) {
				runs.Add(1)
				return nil, nil
			})
		}(i)
	}
	wg.Wait()
	if runs.Load() != 4 {
		t.Errorf("distinct keys ran %d times, want 4", runs.Load())
	}
}

func TestResultCacheMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	if err := c.Put("a", []byte("va")); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get("a"); !ok || string(v) != "va" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}

	// Evicting past the memory bound keeps the disk tier serving.
	if err := c.Put("b", []byte("vb")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("c", []byte("vc")); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("memory holds %d entries, want 2", c.Len())
	}
	if v, ok := c.Get("a"); !ok || string(v) != "va" {
		t.Fatalf("evicted entry lost from disk: %q, %v", v, ok)
	}

	// A fresh cache over the same dir still serves old entries.
	c2, err := NewResultCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c2.Get("b"); !ok || string(v) != "vb" {
		t.Fatalf("restart lost entry b: %q, %v", v, ok)
	}

	// Memory-only mode works and forgets on eviction.
	m, err := NewResultCache("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("y", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("x"); ok {
		t.Error("memory-only cache kept an evicted entry")
	}
}

func TestBlobStoreContentAddressing(t *testing.T) {
	dir := t.TempDir()
	s, err := NewBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("trace bytes")
	d1, existed, err := s.Put(data, map[string]string{"name": "first"})
	if err != nil || existed {
		t.Fatalf("first Put: existed=%v err=%v", existed, err)
	}
	if d1 != Digest(data) {
		t.Fatalf("digest mismatch: %s vs %s", d1, Digest(data))
	}
	d2, existed, err := s.Put(data, map[string]string{"name": "second"})
	if err != nil || !existed || d2 != d1 {
		t.Fatalf("re-Put: digest=%s existed=%v err=%v", d2, existed, err)
	}
	if m, _ := s.Meta(d1); m["name"] != "second" {
		t.Errorf("metadata not replaced: %v", m)
	}
	path, ok := s.Path(d1)
	if !ok {
		t.Fatal("Path miss for stored blob")
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stored bytes differ: %q (%v)", got, err)
	}

	// Unknown or hostile digests resolve to nothing.
	if _, ok := s.Path("deadbeef"); ok {
		t.Error("short digest resolved")
	}
	if _, ok := s.Path("../../../../etc/passwd"); ok {
		t.Error("traversal digest resolved")
	}

	// Reopening the directory restores the catalog.
	s2, err := NewBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.List(); len(got) != 1 || got[0] != d1 {
		t.Fatalf("restart lists %v, want [%s]", got, d1)
	}
	if m, ok := s2.Meta(d1); !ok || m["name"] != "second" {
		t.Fatalf("restart lost metadata: %v %v", m, ok)
	}
}

// A sidecar torn by a crash mid-write must not keep the store from
// opening: its blob stays unknown until re-uploaded, and every other
// trace is still served.
func TestBlobStoreSkipsCorruptSidecar(t *testing.T) {
	dir := t.TempDir()
	s, err := NewBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := s.Put([]byte("good trace"), map[string]string{"name": "good"})
	if err != nil {
		t.Fatal(err)
	}
	tornData := []byte("torn trace")
	torn, _, err := s.Put(tornData, map[string]string{"name": "torn"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, torn+".json"), []byte(`{"name":"to`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewBlobStore(dir)
	if err != nil {
		t.Fatalf("store with one torn sidecar failed to open: %v", err)
	}
	if got := s2.List(); len(got) != 1 || got[0] != good {
		t.Fatalf("reopened store lists %v, want [%s]", got, good)
	}
	if _, ok := s2.Path(torn); ok {
		t.Error("Path resolved a blob whose sidecar is corrupt")
	}
	if _, ok := s2.Meta(torn); ok {
		t.Error("Meta served a corrupt sidecar")
	}
	path, ok := s2.Path(good)
	if !ok {
		t.Fatal("intact trace no longer resolves")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "good trace" {
		t.Fatalf("intact trace bytes = %q (%v)", got, err)
	}
	if m, ok := s2.Meta(good); !ok || m["name"] != "good" {
		t.Errorf("intact trace metadata = %v %v", m, ok)
	}

	// Re-uploading the bytes registers the blob again.
	if _, existed, err := s2.Put(tornData, map[string]string{"name": "again"}); err != nil || existed {
		t.Fatalf("re-upload: existed=%v err=%v", existed, err)
	}
	s3, err := NewBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := s3.Meta(torn); !ok || m["name"] != "again" {
		t.Errorf("re-uploaded trace metadata = %v %v", m, ok)
	}
}
