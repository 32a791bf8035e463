package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// key returns a distinct valid content address for test entry i.
func key(i int) string {
	h := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
	return hex.EncodeToString(h[:])
}

func mustOpen(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	payload := []byte(`{"program":"crc","wcet_opt":1234,"energy_opt_pj":56.78}`)
	if err := s.Put(key(1), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(1))
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip not byte-identical:\n got %s\nwant %s", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 0 misses, 1 entry", st)
	}
}

// TestReopenServesWithoutRecompute is the restart round-trip: a second
// Store over the same directory serves byte-identical payloads.
func TestReopenServesWithoutRecompute(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	payload := []byte(`{"tau":99}`)
	if err := s.Put(key(7), payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(7)); ok {
		t.Fatal("closed store must miss")
	}

	s2 := mustOpen(t, dir, 0)
	got, ok := s2.Get(key(7))
	if !ok {
		t.Fatal("reopened store missed a persisted entry")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("restart round trip not byte-identical: %s", got)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("stats after reopen = %+v", st)
	}
}

// TestTruncatedEntryIsMissAndEvicted covers a torn write from a crashed
// sibling: the integrity envelope fails to decode, the entry reads as a
// miss, and the carcass is removed from disk.
func TestTruncatedEntryIsMissAndEvicted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if err := s.Put(key(3), []byte(`{"a":1,"b":"some longer payload to truncate"}`)); err != nil {
		t.Fatal(err)
	}
	path := s.path(key(3))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(key(3)); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("truncated entry not evicted from disk: %v", err)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Corrupt != 1 || st.Evictions != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 miss, 1 corrupt, 1 eviction, 0 entries", st)
	}
	// The next Put heals the slot.
	if err := s.Put(key(3), []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(3)); !ok {
		t.Fatal("rewritten entry missed")
	}
}

// TestCorruptedPayloadFailsIntegrityHash flips one payload byte in an
// otherwise well-formed envelope: the sha256 check must catch it.
func TestCorruptedPayloadFailsIntegrityHash(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if err := s.Put(key(4), []byte(`{"value":12345}`)); err != nil {
		t.Fatal(err)
	}
	path := s.path(key(4))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the payload; the envelope JSON stays valid.
	mut := bytes.Replace(raw, []byte("12345"), []byte("12945"), 1)
	if bytes.Equal(mut, raw) {
		t.Fatal("test setup: payload byte not found")
	}
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(key(4)); ok {
		t.Fatal("corrupted entry served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want corrupt=1 evictions=1", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupted entry not removed")
	}
}

// TestMisfiledEntryRejected: an entry copied under a different (valid) key
// fails the key echo check even though its hash is internally consistent.
func TestMisfiledEntryRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if err := s.Put(key(5), []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.path(key(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key(6)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(6)); ok {
		t.Fatal("misfiled entry served under the wrong key")
	}
	if _, ok := s.Get(key(5)); !ok {
		t.Fatal("original entry lost")
	}
}

func TestEvictionKeepsStoreWithinBudget(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 256)
	body := fmt.Sprintf(`{"pad":%q}`, payload)
	// Budget for roughly three entries (envelope overhead included).
	s := mustOpen(t, dir, 3*int64(len(body)+200))
	for i := 0; i < 8; i++ {
		if err := s.Put(key(i), []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite exceeding the byte budget")
	}
	if st.Bytes > 3*int64(len(body)+200) {
		t.Fatalf("resident bytes %d exceed budget", st.Bytes)
	}
	// The most recent entry must always survive.
	if _, ok := s.Get(key(7)); !ok {
		t.Fatal("most recently written entry was evicted")
	}
	// The oldest must be gone, from the index and from disk.
	if _, err := os.Stat(s.path(key(0))); !os.IsNotExist(err) {
		t.Fatal("oldest entry still on disk after eviction")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != st.Entries {
		t.Fatalf("disk has %d entries, index has %d", len(files), st.Entries)
	}
}

// TestEvictionPrefersLeastRecentlyUsed: touching an old entry via Get
// saves it from the next eviction round.
func TestEvictionPrefersLeastRecentlyUsed(t *testing.T) {
	body := fmt.Sprintf(`{"pad":%q}`, bytes.Repeat([]byte("y"), 256))
	s := mustOpen(t, t.TempDir(), 3*int64(len(body)+200))
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(key(0)); !ok { // promote the oldest
		t.Fatal("entry 0 missing")
	}
	if err := s.Put(key(9), []byte(body)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, err := os.Stat(s.path(key(1))); !os.IsNotExist(err) {
		t.Fatal("least recently used entry survived eviction")
	}
}

// TestSiblingWrittenEntryIsFound: an entry that appeared in the directory
// after Open (another replica wrote it) is served and adopted.
func TestSiblingWrittenEntryIsFound(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	sibling := mustOpen(t, dir, 0)
	if err := sibling.Put(key(11), []byte(`{"shared":true}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(11))
	if !ok {
		t.Fatal("entry written by a sibling replica missed")
	}
	if string(got) != `{"shared":true}` {
		t.Fatalf("payload = %s", got)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("sibling entry not adopted into the index: %+v", st)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	for _, k := range []string{"", "short", "../../../../etc/passwd", "ABCDEF0123456789ABCDEF", key(1) + "/x"} {
		if err := s.Put(k, []byte("{}")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", k)
		}
		if _, ok := s.Get(k); ok {
			t.Errorf("Get(%q) hit on an invalid key", k)
		}
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, 0)
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("foreign files adopted: %+v", st)
	}
}

// TestConcurrentPutGet exercises the locking under the race detector.
func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := key(i % 5)
				if err := s.Put(k, []byte(fmt.Sprintf(`{"i":%d}`, i%5))); err != nil {
					t.Error(err)
					return
				}
				s.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries != 5 {
		t.Fatalf("entries = %d, want 5", st.Entries)
	}
}

// FuzzGet plants arbitrary bytes as an entry file and reads it back. Get
// must never panic and never return a payload whose SHA-256 differs from
// the digest its envelope records; a rejected file is evicted from disk.
func FuzzGet(f *testing.F) {
	valid := func(k string, payload string) []byte {
		sum := sha256.Sum256([]byte(payload))
		return []byte(fmt.Sprintf(`{"v":1,"key":%q,"sha256":%q,"payload":%s}`, k, hex.EncodeToString(sum[:]), payload))
	}
	good := valid(key(1), `{"value":12345}`)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(bytes.Replace(good, []byte("12345"), []byte("12945"), 1))
	f.Add(valid(key(2), `{"v":1}`))
	f.Add([]byte(`{"v":2,"key":"` + key(1) + `","sha256":"","payload":null}`))
	f.Add([]byte("{}"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s := mustOpen(t, dir, 0)
		path := s.path(key(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, ok := s.Get(key(1))
		if !ok {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("rejected entry left on disk: %v", err)
			}
			return
		}
		var env struct {
			Sum string `json:"sha256"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("served a payload from an undecodable envelope: %v", err)
		}
		want, err := hex.DecodeString(env.Sum)
		got := sha256.Sum256(payload)
		if err != nil || !bytes.Equal(got[:], want) {
			t.Fatalf("served payload %q whose sha256 %x does not match the envelope's %q", payload, got, env.Sum)
		}
	})
}
