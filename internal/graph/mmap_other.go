//go:build !unix

package graph

import "os"

// Platforms without a usable mmap: mmapSnapshot reports
// ErrMmapUnsupported before ever calling these, and callers fall back to
// the copy-in ReadSnapshotFile.
const mmapSupported = false

func mmapFile(*os.File, int64) ([]byte, error) { return nil, ErrMmapUnsupported }

func munmapFile([]byte) error { return nil }
