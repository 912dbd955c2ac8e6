package chaos

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// File is the writable-file surface the durability layers (rcache
// blobs, journals) actually use; *os.File satisfies it.
type File interface {
	io.Writer
	io.Closer
	Name() string
	Sync() error
}

// FS is the injectable filesystem seam. Production code takes an FS
// instead of calling the os package directly, so one chaos plan can
// make every store in the process share a sick disk. Read operations
// are part of the seam for symmetry but are never faulted: damage is
// injected on the write path and discovered at read-back, the same
// way a real crash's damage is.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Chmod(name string, mode os.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) Chmod(name string, mode os.FileMode) error  { return os.Chmod(name, mode) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// NewFS wraps a filesystem with seeded write-path fault injection.
// Returns base unchanged when the plan has no filesystem class armed.
// A nil base means OS.
func NewFS(p *Plan, base FS) FS {
	if base == nil {
		base = OS
	}
	if p == nil || !p.spec.FSActive() {
		return base
	}
	return &chaosFS{plan: p, base: base}
}

type chaosFS struct {
	plan *Plan
	base FS
}

func (c *chaosFS) MkdirAll(path string, perm os.FileMode) error { return c.base.MkdirAll(path, perm) }
func (c *chaosFS) ReadFile(name string) ([]byte, error)         { return c.base.ReadFile(name) }
func (c *chaosFS) Remove(name string) error                     { return c.base.Remove(name) }
func (c *chaosFS) Chmod(name string, mode os.FileMode) error    { return c.base.Chmod(name, mode) }
func (c *chaosFS) ReadDir(name string) ([]fs.DirEntry, error)   { return c.base.ReadDir(name) }

func (c *chaosFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &chaosFile{plan: c.plan, base: f}, nil
}

func (c *chaosFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := c.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &chaosFile{plan: c.plan, base: f}, nil
}

func (c *chaosFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	switch class, _ := c.plan.NextWrite(); class {
	case ClassENOSPC:
		return &os.PathError{Op: "write", Path: name, Err: syscall.ENOSPC}
	case ClassTorn:
		// Persist a prefix, then fail: the file now holds torn bytes
		// the caller knows about only because the error said so.
		c.base.WriteFile(name, data[:len(data)/2], perm)
		return &os.PathError{Op: "write", Path: name, Err: fmt.Errorf("chaos: torn write: %w", io.ErrShortWrite)}
	}
	return c.base.WriteFile(name, data, perm)
}

func (c *chaosFS) Rename(oldpath, newpath string) error {
	if class, _ := c.plan.NextRename(); class == ClassRenameRace {
		// As if a concurrent cleaner swept the temp first; nothing is
		// renamed and the source is left for the caller to collect.
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.ENOENT}
	}
	return c.base.Rename(oldpath, newpath)
}

type chaosFile struct {
	plan *Plan
	base File
}

func (f *chaosFile) Name() string { return f.base.Name() }
func (f *chaosFile) Close() error { return f.base.Close() }

func (f *chaosFile) Write(b []byte) (int, error) {
	switch class, _ := f.plan.NextWrite(); class {
	case ClassENOSPC:
		return 0, &os.PathError{Op: "write", Path: f.base.Name(), Err: syscall.ENOSPC}
	case ClassTorn:
		n, _ := f.base.Write(b[:len(b)/2])
		return n, &os.PathError{Op: "write", Path: f.base.Name(), Err: fmt.Errorf("chaos: torn write: %w", io.ErrShortWrite)}
	}
	return f.base.Write(b)
}

func (f *chaosFile) Sync() error {
	if class, _ := f.plan.NextSync(); class == ClassFsyncFail {
		// The data written so far stays (our simulated page cache is
		// the real file); only the durability barrier fails.
		return &os.PathError{Op: "sync", Path: f.base.Name(), Err: syscall.EIO}
	}
	return f.base.Sync()
}
