package checkinv

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
)

// cacheVersion invalidates every entry when the analyzer suite changes
// behavior.  Bump it whenever a rule's findings or the entry schema move.
const cacheVersion = "checkinv-v3.0"

// Cache is the driver's per-package findings cache, the payoff of the
// long-carried ROADMAP item: `go run ./cmd/checkinv ./...` used to
// re-type-check every shared dependency from source on each invocation.
// Entries are keyed by a content hash over the package directory's Go
// files *and* its transitive module-internal imports, so a cached package
// is skipped entirely — no parse, no type-check, no analysis — and any
// edit anywhere in its dependency cone invalidates exactly the packages
// that could see it.  The key is path-independent (module-relative names,
// file contents only), so a CI cache restored on another checkout still
// hits.
type Cache struct {
	dir string

	mu       sync.Mutex
	dirInfo  map[string]dirInfo // abs dir → own hashes, imports
	deepHash map[string]string  // abs dir → source hash incl. transitive deps
}

// dirInfo is one directory's own content hashes and the import paths its
// files mention, for the package sources and the _test.go files apart.
type dirInfo struct {
	srcHash, testHash       string
	srcImports, testImports []string
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("checkinv: cache: %w", err)
	}
	return &Cache{
		dir:      dir,
		dirInfo:  map[string]dirInfo{},
		deepHash: map[string]string{},
	}, nil
}

// cachedFinding is a Finding with a module-relative position, so entries
// travel between checkouts.
type cachedFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// cachedPackage is one package's analysis outcome.
type cachedPackage struct {
	Rel        string          `json:"rel"`
	Path       string          `json:"path"`
	TypeErrors int             `json:"typeErrors,omitempty"`
	Findings   []cachedFinding `json:"findings"`
	Allows     []AllowSite     `json:"allows"`
}

// cacheEntry is the stored value for one directory (1–2 packages when test
// files split into an external test package; 0 for Go-free directories).
type cacheEntry struct {
	Version  string          `json:"version"`
	Packages []cachedPackage `json:"packages"`
}

// Key computes the cache key for a package directory under the given
// configuration string (analyzer set with scopes, scope mode).  The
// directory's _test.go files are analyzed with it, so they and their
// imports join the key; dependencies count source-only, since a
// dependency's test files cannot change this package's types or findings.
func (c *Cache) Key(dir, modRoot, modPath, config string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	deep, err := c.deepDirHash(abs, modRoot, modPath, nil)
	if err != nil {
		return "", err
	}
	info, err := c.ownDirHash(abs)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s\n%s\n%s\ntests %s\n", cacheVersion, runtime.Version(), modPath, config, deep, info.testHash)
	if err := c.hashDeps(h, info.testImports, modRoot, modPath, nil); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

// deepDirHash hashes the directory's package sources plus, recursively,
// every module-internal directory they import.  Memoized per Cache.  path
// holds the directories this call descends from: an import cycle (a tree
// that would not build) is cut there with a constant marker.  The guard is
// per call chain, not shared, because keys are computed concurrently and a
// directory another goroutine is hashing is not a cycle.  abs is absolute.
func (c *Cache) deepDirHash(abs, modRoot, modPath string, path []string) (string, error) {
	if slices.Contains(path, abs) {
		return "cycle", nil
	}
	c.mu.Lock()
	memo, ok := c.deepHash[abs]
	c.mu.Unlock()
	if ok {
		return memo, nil
	}

	info, err := c.ownDirHash(abs)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(modRoot, abs)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "dir %s %s\n", filepath.ToSlash(rel), info.srcHash)
	if err := c.hashDeps(h, info.srcImports, modRoot, modPath, append(path[:len(path):len(path)], abs)); err != nil {
		return "", err
	}
	sum := hex.EncodeToString(h.Sum(nil))

	c.mu.Lock()
	c.deepHash[abs] = sum
	c.mu.Unlock()
	return sum, nil
}

// hashDeps writes the deep hash of every module-internal import into h.
func (c *Cache) hashDeps(h io.Writer, imports []string, modRoot, modPath string, path []string) error {
	for _, imp := range filterModuleImports(imports, modPath) {
		sub := strings.TrimPrefix(strings.TrimPrefix(imp, modPath), "/")
		dh, err := c.deepDirHash(filepath.Join(modRoot, filepath.FromSlash(sub)), modRoot, modPath, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "dep %s %s\n", imp, dh)
	}
	return nil
}

// ownDirHash hashes the directory's package sources and its _test.go files
// separately, with the import paths each set mentions.  Imports are read
// with a comments-and-bodies-free parse — cheap enough to run on every
// invocation even for a full tree.
func (c *Cache) ownDirHash(abs string) (dirInfo, error) {
	c.mu.Lock()
	if info, ok := c.dirInfo[abs]; ok {
		c.mu.Unlock()
		return info, nil
	}
	c.mu.Unlock()

	srcNames, testNames, err := goFileNames(abs)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// An import of a vanished directory: the dependent package has
			// type errors either way; a constant marker keys that state.
			return dirInfo{srcHash: "missing"}, nil
		}
		return dirInfo{}, err
	}
	var info dirInfo
	if info.srcHash, info.srcImports, err = hashFiles(abs, srcNames); err != nil {
		return dirInfo{}, err
	}
	if info.testHash, info.testImports, err = hashFiles(abs, testNames); err != nil {
		return dirInfo{}, err
	}

	c.mu.Lock()
	c.dirInfo[abs] = info
	c.mu.Unlock()
	return info, nil
}

// hashFiles hashes the named files of one directory and returns the import
// paths they mention, sorted.
func hashFiles(abs string, names []string) (string, []string, error) {
	h := sha256.New()
	importSet := map[string]bool{}
	fset := token.NewFileSet()
	for _, n := range names {
		p := filepath.Join(abs, n)
		data, err := os.ReadFile(p)
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(h, "file %s %d\n", n, len(data))
		h.Write(data)
		f, err := parser.ParseFile(fset, p, data, parser.ImportsOnly)
		if err != nil {
			continue // unparsable files change the hash; imports best-effort
		}
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	var imports []string
	for path := range importSet {
		imports = append(imports, path)
	}
	sort.Strings(imports)
	return hex.EncodeToString(h.Sum(nil)), imports, nil
}

// filterModuleImports keeps only module-internal import paths.
func filterModuleImports(imports []string, modPath string) []string {
	var out []string
	for _, p := range imports {
		if p == modPath || strings.HasPrefix(p, modPath+"/") {
			out = append(out, p)
		}
	}
	return out
}

// Get returns the entry stored under key, or nil.
func (c *Cache) Get(key string) *cacheEntry {
	data, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if err != nil {
		return nil
	}
	var e cacheEntry
	if json.Unmarshal(data, &e) != nil || e.Version != cacheVersion {
		return nil
	}
	return &e
}

// Put stores the entry under key, atomically (tmp + rename), so a raced or
// killed run never leaves a torn entry behind.
func (c *Cache) Put(key string, e *cacheEntry) error {
	e.Version = cacheVersion
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, filepath.Join(c.dir, key+".json"))
}
