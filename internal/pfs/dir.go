package pfs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DirStore is a directory-backed object store with the same interface
// shape as Store, used when a real staging daemon spills its cold tier
// to a mounted PFS path (stagingd -tier-dir). Object names are
// slash-separated keys mapped onto files below the root; writes go
// through a temp file + rename so a crashed writer never leaves a
// half-written object visible under its final name. Write fsyncs the
// file before the rename and the parent directory after it, and Rename
// fsyncs the parent directory, so a completed call survives an OS
// crash, not just the death of the process.
type DirStore struct {
	mu   sync.Mutex
	root string
	seq  int64
}

// NewDirStore creates (if needed) and opens a directory-backed store
// rooted at dir.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("pfs: empty tier directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pfs: tier dir: %w", err)
	}
	return &DirStore{root: dir}, nil
}

func (d *DirStore) path(name string) string {
	return filepath.Join(d.root, filepath.FromSlash(name))
}

// Write stores data under name via temp file + rename.
func (d *DirStore) Write(name string, data []byte) error {
	d.mu.Lock()
	d.seq++
	tmp := filepath.Join(d.root, fmt.Sprintf(".tmp.%d", d.seq))
	d.mu.Unlock()
	dst := d.path(name)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	if err := writeSynced(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(dst))
}

// writeSynced writes data to a new file at path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so the entries renamed into it are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Read returns the object stored under name.
func (d *DirStore) Read(name string) ([]byte, bool) {
	b, err := os.ReadFile(d.path(name))
	if err != nil {
		return nil, false
	}
	return b, true
}

// Rename atomically moves the object at old to new.
func (d *DirStore) Rename(old, new string) error {
	dst := d.path(new)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	if err := os.Rename(d.path(old), dst); err != nil {
		return err
	}
	return syncDir(filepath.Dir(dst))
}

// List returns the sorted names of all objects starting with prefix.
func (d *DirStore) List(prefix string) []string {
	var out []string
	filepath.Walk(d.root, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return nil
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(filepath.Base(name), ".tmp.") {
			return nil
		}
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
		return nil
	})
	sort.Strings(out)
	return out
}

// Delete removes the object stored under name.
func (d *DirStore) Delete(name string) {
	os.Remove(d.path(name))
}
