// The dataset registry: named real-world graphs served from disk.
//
// Config.DatasetDir points at a directory of graph files; every file with
// a recognized extension is a dataset, addressable by its base name. A
// request's "dataset" field resolves against the registry first and falls
// back to the synthetic generator prefixes (LJ, Wiki, TW, UK), so real
// edge lists and the paper's stand-ins share one request shape, one graph
// cache and one model-key scheme.
//
//	<name>.snap           binary CSR snapshot (graph.WriteSnapshot) — preferred
//	<name>.txt, .el,
//	<name>.edges          plain-text edge list (graph.WriteEdgeList format)
//
// When both forms exist the snapshot wins: it loads in O(bytes) with no
// parsing. Loads go through the shared graph cache (LRU + single-flight),
// and a loaded graph is warmed (EnsureDegreeArtifacts) exactly like a
// generated one, so the first cold fit finds the BRJ seed ordering ready.
package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"predict/internal/graph"
	"predict/internal/retry"
)

// snapshotExt is the extension the registry treats as a binary snapshot;
// edgeListExts are the plain-text forms, in resolution order.
var (
	snapshotExt  = ".snap"
	edgeListExts = []string{".txt", ".el", ".edges"}
)

// DatasetInfo describes one registry dataset (the GET /datasets payload).
type DatasetInfo struct {
	Name string `json:"name"`
	// Formats lists the on-disk forms present, snapshot first.
	Formats []string `json:"formats"`
	// SizeBytes is the size of the file a load would read (the snapshot
	// when present, the edge list otherwise).
	SizeBytes int64 `json:"size_bytes"`
	// Loaded reports whether the graph currently sits in the graph cache.
	Loaded bool `json:"loaded"`
	// Vertices/Edges/Weighted are filled when the graph is loaded.
	Vertices int    `json:"vertices,omitempty"`
	Edges    int64  `json:"edges,omitempty"`
	Weighted bool   `json:"weighted,omitempty"`
	Path     string `json:"path"`
}

// datasetKey namespaces registry graphs in the shared graph cache, apart
// from the "prefix|scale|seed" keys generated graphs use, and embeds the
// resolved file's identity (mtime + size, rsync-style): replacing the
// file on disk yields a new key, so the next load — and the next model
// fit, since the model key embeds this string — reads the new contents
// instead of serving a graph or model cached from the old ones. Stale
// versions age out of the LRU caches. The identity also guards history
// warm-up across restarts: models persisted against the old file cannot
// be served for the new one.
func datasetKey(name string, fi os.FileInfo) string {
	return fmt.Sprintf("dataset:%s@%d.%d", name, fi.ModTime().UnixNano(), fi.Size())
}

// validDatasetName rejects names that could escape DatasetDir or collide
// with path syntax; registry names are file base names, nothing more.
func validDatasetName(name string) bool {
	if name == "" || strings.HasPrefix(name, ".") {
		return false
	}
	return !strings.ContainsAny(name, `/\`)
}

// resolveDataset maps a dataset name to the file a load would read,
// returning its Stat (the identity datasetKey embeds). Snapshot beats
// edge list when both exist.
func (s *Service) resolveDataset(name string) (path string, fi os.FileInfo, snapshot, ok bool) {
	if s.cfg.DatasetDir == "" || !validDatasetName(name) {
		return "", nil, false, false
	}
	p := filepath.Join(s.cfg.DatasetDir, name+snapshotExt)
	if fi, err := os.Stat(p); err == nil && fi.Mode().IsRegular() {
		return p, fi, true, true
	}
	for _, ext := range edgeListExts {
		p := filepath.Join(s.cfg.DatasetDir, name+ext)
		if fi, err := os.Stat(p); err == nil && fi.Mode().IsRegular() {
			return p, fi, false, true
		}
	}
	return "", nil, false, false
}

// datasetFormats lists the on-disk forms for a resolved dataset,
// preferred form first.
func (s *Service) datasetFormats(name string, snapshot bool) []string {
	if !snapshot {
		return []string{"edgelist"}
	}
	formats := []string{"snapshot"}
	for _, ext := range edgeListExts {
		if efi, err := os.Stat(filepath.Join(s.cfg.DatasetDir, name+ext)); err == nil && efi.Mode().IsRegular() {
			return append(formats, "edgelist")
		}
	}
	return formats
}

// describeDataset builds the DatasetInfo for one name: which forms exist
// (snapshot first — the preference order resolveDataset loads by), the
// size of the file a load would read, and the cached graph's shape when
// it is loaded. ok is false when no recognized file exists for the name.
func (s *Service) describeDataset(name string) (DatasetInfo, bool) {
	path, fi, snapshot, ok := s.resolveDataset(name)
	if !ok {
		return DatasetInfo{}, false
	}
	info := DatasetInfo{
		Name:      name,
		Path:      path,
		SizeBytes: fi.Size(),
		Formats:   s.datasetFormats(name, snapshot),
	}
	// Loaded means "this version of the file is cached": a replaced file
	// reports unloaded until its new contents are read.
	if g, ok := s.graphs.peek(datasetKey(name, fi)); ok {
		info.Loaded = true
		info.Vertices = g.NumVertices()
		info.Edges = g.NumEdges()
		info.Weighted = g.HasWeights()
	}
	return info, true
}

// Datasets scans DatasetDir and reports every registered dataset, sorted
// by name. Graphs already in the cache carry their vertex/edge counts.
func (s *Service) Datasets() ([]DatasetInfo, error) {
	entries, err := os.ReadDir(s.cfg.DatasetDir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	out := make([]DatasetInfo, 0, len(entries))
	for _, e := range entries {
		// No e.Type() filter here: symlinked dataset files (the natural way
		// to mount a multi-GB graph without copying) must list. describeDataset
		// stats through the link and drops anything that is not a regular file.
		ext := filepath.Ext(e.Name())
		name := strings.TrimSuffix(e.Name(), ext)
		if seen[name] || !validDatasetName(name) {
			continue
		}
		if ext != snapshotExt && !slices.Contains(edgeListExts, ext) {
			continue
		}
		seen[name] = true
		if info, ok := s.describeDataset(name); ok {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// loadDataset loads (or returns the cached) registry graph for one file
// version via the shared graph cache: concurrent loads of the same
// dataset share one read, and the loaded graph is artifact-warmed like a
// generated one. key is the datasetKey of the resolved file. ctx bounds
// only the caller's wait: the load belongs to every request waiting on
// it. A failed load is not cached, so the next request for the dataset
// loads the file again.
func (s *Service) loadDataset(ctx context.Context, name, path, key string) (*graph.Graph, bool, error) {
	return s.graphs.get(ctx, key, func() (*graph.Graph, error) {
		var g *graph.Graph
		var err error
		if s.cfg.MmapDatasets && filepath.Ext(path) == snapshotExt {
			// Zero-copy generation: the graph aliases the mmap'd file, the
			// cache holds only slice headers, and eviction lets the
			// finalizer unmap. Falls back to copy-in where mmap is
			// unavailable (OpenSnapshot handles ErrMmapUnsupported).
			g, _, err = graph.OpenSnapshot(path)
		} else {
			// Parse on the service's shared fit pool: N concurrent first
			// touches of N distinct datasets stay within one parallelism
			// budget instead of stampeding N*GOMAXPROCS parser goroutines —
			// the same discipline cold fits follow.
			g, err = graph.LoadFile(path, graph.LoadOptions{Pool: s.fitPool})
		}
		if err != nil {
			// The request was valid — the name resolved; a file that then
			// fails to load is a server-side fault, not a client error. A
			// transient one (retry.IsTransient: a timeout, EIO, EBUSY…) is
			// a 503 with Retry-After, since the failure is not cached and a
			// later attempt may load the file; a permanent one (corrupt
			// snapshot, permissions) is a 500.
			msg := fmt.Sprintf("service: loading dataset %q: %v", name, err)
			if retry.IsTransient(err) {
				return nil, &Error{Status: 503, RetryAfterSeconds: shedRetryAfterSeconds, Msg: msg}
			}
			return nil, &Error{Status: 500, Msg: msg}
		}
		g.EnsureDegreeArtifacts()
		return g, nil
	})
}

// LoadDataset resolves and loads a registry dataset by name, returning
// its description. The boolean reports whether the graph was already
// cached (the POST /datasets/{name}/load "already_loaded" field).
func (s *Service) LoadDataset(ctx context.Context, name string) (*DatasetInfo, bool, error) {
	if s.cfg.DatasetDir == "" {
		return nil, false, &Error{Status: 404, Msg: "service: no dataset directory configured"}
	}
	path, fi, snapshot, ok := s.resolveDataset(name)
	if !ok {
		return nil, false, &Error{Status: 404, Msg: fmt.Sprintf("service: unknown dataset %q", name)}
	}
	g, cached, err := s.loadDataset(ctx, name, path, datasetKey(name, fi))
	if err != nil {
		return nil, false, requestError(ctx, "loading dataset "+name, err, 500)
	}
	// The response describes the version that was resolved and loaded —
	// no re-resolve, so a file replaced mid-request cannot mix two
	// versions' metadata in one answer.
	info := &DatasetInfo{
		Name:      name,
		Path:      path,
		SizeBytes: fi.Size(),
		Formats:   s.datasetFormats(name, snapshot),
		Loaded:    true,
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		Weighted:  g.HasWeights(),
	}
	return info, cached, nil
}
