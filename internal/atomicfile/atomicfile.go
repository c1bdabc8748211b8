// Package atomicfile is the one crash-safe file rewrite: graph snapshots
// and history logs both publish their new contents through Replace.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Replace atomically replaces the file at path with what write produces:
// any instant of death leaves either the old file or the new one whole.
// The new contents go to a temp file beside path, named ".<base>.tmp*"
// (the dataset registry never lists dot files), which is fsynced, given
// mode 0644 and renamed over path; the directory is then fsynced so the
// rename itself survives a crash. beforeRename, when non-nil, runs in the
// window where the new contents are durable but not yet published; its
// error abandons the rewrite with the old file intact. On any failure the
// temp file is removed.
func Replace(path string, write func(io.Writer) error, beforeRename func() error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// CreateTemp's 0600 is right for scratch, not for a file other
	// processes and operators read.
	err = tmp.Chmod(0o644)
	if err == nil {
		err = write(tmp)
	}
	if err == nil {
		// The contents must be durable before the rename publishes them:
		// rename-over-old with unsynced data can survive a crash as an
		// empty file on some filesystems, destroying the old contents too.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if beforeRename != nil {
		if err := beforeRename(); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Best effort: some filesystems reject fsync on directories, and the
	// data blocks are already durable, so that is not worth failing over.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
