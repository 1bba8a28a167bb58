package svc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// BlobStore is a content-addressed file store: Put writes bytes under
// their hex sha256 digest (plus a small JSON metadata sidecar) and
// returns that digest; identical bytes uploaded twice occupy one entry.
// The store is the durable home of uploaded traces — digests are the
// trace half of every scenario key, so the layout is deliberately
// boring and greppable: <dir>/<digest> and <dir>/<digest>.json.
type BlobStore struct {
	mu   sync.Mutex
	dir  string
	meta map[string]map[string]string // digest -> metadata
}

// Digest returns the store's content address for data: hex sha256.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validDigest guards every path built from caller-supplied digests.
func validDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for _, c := range d {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewBlobStore opens (creating if needed) the store rooted at dir and
// loads the metadata of every existing entry, so a restarted server
// still knows its traces by name. A sidecar that does not parse leaves
// its blob unregistered (Path and Meta refuse it) rather than blocking
// start-up; re-uploading the same bytes registers it again.
func NewBlobStore(dir string) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &BlobStore{dir: dir, meta: make(map[string]map[string]string)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || !validDigest(name) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var m map[string]string
		if json.Unmarshal(data, &m) != nil {
			continue
		}
		s.meta[name] = m
	}
	return s, nil
}

// Put stores data and its metadata, returning the content digest and
// whether the blob already existed (in which case the metadata is
// replaced — re-uploading under a new name renames, it does not
// duplicate).
func (s *BlobStore) Put(data []byte, meta map[string]string) (digest string, existed bool, err error) {
	digest = Digest(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, existed = s.meta[digest]
	if !existed {
		if err := writeFileAtomic(s.dir, digest, data); err != nil {
			return "", false, err
		}
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return "", false, err
	}
	if err := writeFileAtomic(s.dir, digest+".json", mj); err != nil {
		return "", false, err
	}
	cp := make(map[string]string, len(meta))
	for k, v := range meta {
		cp[k] = v
	}
	s.meta[digest] = cp
	return digest, existed, nil
}

// Path returns the on-disk path of the blob with the given digest.
func (s *BlobStore) Path(digest string) (string, bool) {
	if !validDigest(digest) {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.meta[digest]; !ok {
		return "", false
	}
	return filepath.Join(s.dir, digest), true
}

// Meta returns a copy of the metadata stored with digest.
func (s *BlobStore) Meta(digest string) (map[string]string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.meta[digest]
	if !ok {
		return nil, false
	}
	cp := make(map[string]string, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp, true
}

// List returns every stored digest in sorted order.
func (s *BlobStore) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.meta))
	for d := range s.meta {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
