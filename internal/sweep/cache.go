// Content-addressed run cache. A cell's result is stored under the SHA-256
// of its full identity — experiment name, canonical config string, seed,
// and module version — so a re-run only pays for cells whose identity
// changed. The version component is the SHA-256 of the running executable,
// so any rebuild from changed code (including `go run` and uncommitted
// trees) invalidates the whole cache rather than risking stale results.
// When the executable cannot be read the version is empty, and keys with
// an empty version never hit or fill the cache.

package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// DefaultCacheDir is where splitbench keeps its run cache.
const DefaultCacheDir = ".splitbench-cache"

// Key is a cell's complete identity. Two cells with equal Keys must
// produce identical result bytes — that is the contract that makes the
// cache sound and serial/parallel runs byte-identical.
type Key struct {
	// Experiment is the experiment name (e.g. "crashsweep").
	Experiment string `json:"experiment"`
	// Config is the canonical cell configuration, e.g.
	// "sched=cfq fs=ext4 disk=hdd scale=0.1". It must encode everything
	// that distinguishes this cell from its siblings.
	Config string `json:"config"`
	// Seed is the cell's deterministic random seed.
	Seed int64 `json:"seed"`
	// Version ties the entry to the code that produced it; see
	// ModuleVersion. Empty means unknown, and such keys are never cached.
	Version string `json:"version"`
}

// NewKey builds a Key for the current module version.
func NewKey(experiment, config string, seed int64) Key {
	return Key{Experiment: experiment, Config: config, Seed: seed, Version: ModuleVersion()}
}

func (k Key) String() string {
	return fmt.Sprintf("%s[%s seed=%d]", k.Experiment, k.Config, k.Seed)
}

// Hash returns the hex SHA-256 of the key. Components are length-framed so
// no two distinct keys can collide by shifting bytes between fields.
func (k Key) Hash() string {
	h := sha256.New()
	for _, s := range []string{k.Experiment, k.Config, fmt.Sprint(k.Seed), k.Version} {
		fmt.Fprintf(h, "%d:%s", len(s), s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// moduleVersion resolves once: the hex SHA-256 of the running executable,
// or "" when it cannot be read.
var moduleVersion = sync.OnceValue(func() string {
	path, err := os.Executable()
	if err != nil {
		return ""
	}
	return fileVersion(path)
})

// fileVersion returns the hex SHA-256 of the file at path, or "" when it
// cannot be read.
func fileVersion(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ModuleVersion is the version component NewKey stamps into keys.
func ModuleVersion() string { return moduleVersion() }

// Cache is a directory of result files, one per key hash. Safe for
// concurrent use by many workers (and many processes): writes go to a
// temp file first and are published with an atomic rename, and a corrupt
// or mismatched entry reads as a miss, never as bad data.
type Cache struct {
	dir string
}

// envelope is the on-disk form: the full key rides along so hash
// collisions and hand-edited files are detected and treated as misses.
type envelope struct {
	Key  Key    `json:"key"`
	Data []byte `json:"data"`
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(k Key) string {
	h := k.Hash()
	return filepath.Join(c.dir, h[:2], h+".json")
}

// Get returns the cached result for k, if present and intact.
func (c *Cache) Get(k Key) ([]byte, bool) {
	b, err := os.ReadFile(c.path(k))
	if err != nil {
		return nil, false
	}
	var e envelope
	if json.Unmarshal(b, &e) != nil || e.Key != k {
		return nil, false
	}
	return e.Data, true
}

// Put stores data as k's result. A key with an empty Version is not
// stored, so it can never hit.
func (c *Cache) Put(k Key, data []byte) error {
	if k.Version == "" {
		return nil
	}
	b, err := json.Marshal(envelope{Key: k, Data: data})
	if err != nil {
		return err
	}
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
