package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/engine"
)

// File layout under the root directory:
//
//	manifest.json                      — named datasets + configs (atomic rewrite)
//	datasets/<name>/snapshot.snap      — latest full-state checkpoint (atomic rename)
//	datasets/<name>/wal-<firstseq>.log — the WAL since the snapshot, append-only
//
// The WAL segment starts with an 8-byte magic header and holds CRC-framed
// records: [len u32][crc32 u32][payload], one applied batch per frame; the
// snapshot file holds one such frame after its own magic. The segment's first
// sequence number is its filename, and frames are contiguous. Every snapshot
// with nothing logged past it starts a fresh segment at its Seq+1 and removes
// the others, so the log is the batches since the last snapshot. Two
// segments exist only after a crash mid-rotation (the old one and the fresh
// one), after a removal that failed, or in a directory an older build rolled
// by size.
//
// Replay is the open: one walk over the frames after the snapshot's Seq. The
// chain starts at the newest segment whose first seq is at most Seq+1 (older
// ones lie wholly behind the snapshot and are removed) and follows the
// segments by sequence number. A crash can only tear the final frame
// (appends are sequential, and a failed append cuts its own frame back off);
// the walk stops at the first invalid frame, truncates the segment there,
// and drops later segments — torn batches disappear atomically, half-applied
// states cannot exist. A log that ends before the snapshot (frames lost
// under SyncNever behind an fsynced snapshot) restarts after it, as a
// snapshot at the head does.
//
// Snapshots and the manifest are replaced via write-to-temp + rename (+
// directory fsync), so readers observe either the old or the new complete
// file, never a torn one. Dataset creation stages the directory, initial
// snapshot, and first WAL segment before the manifest rewrite that commits
// the dataset; deletion removes the manifest entry first. Either way a crash
// in between leaves only an orphan directory, swept at the next open.

const (
	walMagic  = "UTKWAL1\n"
	snapMagic = "UTKSNP1\n"

	frameHeaderLen = 8 // len u32 + crc u32
)

var errClosed = errors.New("store: closed")

// FileConfig tunes a file-backed store.
type FileConfig struct {
	// Sync selects when WAL appends reach stable storage (SyncAlways is the
	// zero value: fsync before acknowledging).
	Sync SyncPolicy
}

// File is the durable Store: WAL + atomic snapshots + manifest, all under
// one directory.
type File struct {
	dir string
	cfg FileConfig

	mu       sync.Mutex
	manifest map[string]DatasetConfig
	open     map[string]*fileDataset
	closed   bool
}

// fileDataset is the open state of one dataset's WAL.
type fileDataset struct {
	mu   sync.Mutex
	dir  string
	w    *os.File // active segment, opened for append
	wLen int64
	last uint64 // last durably framed batch seq
	sync SyncPolicy
}

// OpenFile opens (or initializes) a file-backed store rooted at dir. Orphan
// dataset directories — left by a crash between staging and the manifest
// commit, or between a manifest removal and the directory sweep — are
// deleted here.
func OpenFile(dir string, cfg FileConfig) (*File, error) {
	if err := os.MkdirAll(filepath.Join(dir, "datasets"), 0o755); err != nil {
		return nil, err
	}
	f := &File{
		dir:      dir,
		cfg:      cfg,
		manifest: make(map[string]DatasetConfig),
		open:     make(map[string]*fileDataset),
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh store: empty manifest.
	case err != nil:
		return nil, err
	default:
		var mf Manifest
		if err := json.Unmarshal(raw, &mf); err != nil {
			return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
		}
		for _, cfg := range mf.Datasets {
			f.manifest[cfg.Name] = cfg
		}
	}
	// Sweep orphans: a directory without a manifest entry is an uncommitted
	// create or an unfinished drop — either way it must not survive.
	entries, err := os.ReadDir(filepath.Join(dir, "datasets"))
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		if _, ok := f.manifest[ent.Name()]; !ok {
			if err := os.RemoveAll(filepath.Join(dir, "datasets", ent.Name())); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// LoadManifest returns the committed datasets.
func (f *File) LoadManifest() (*Manifest, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mf := &Manifest{}
	for _, cfg := range f.manifest {
		mf.Datasets = append(mf.Datasets, cfg)
	}
	sort.Slice(mf.Datasets, func(i, j int) bool { return mf.Datasets[i].Name < mf.Datasets[j].Name })
	return mf, nil
}

func (f *File) datasetDir(name string) string {
	return filepath.Join(f.dir, "datasets", name)
}

// writeManifest rewrites manifest.json atomically from the in-memory map.
// Caller holds f.mu.
func (f *File) writeManifest() error {
	mf := Manifest{}
	for _, cfg := range f.manifest {
		mf.Datasets = append(mf.Datasets, cfg)
	}
	sort.Slice(mf.Datasets, func(i, j int) bool { return mf.Datasets[i].Name < mf.Datasets[j].Name })
	raw, err := json.MarshalIndent(&mf, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(f.dir, "manifest.json"), raw)
}

// CreateDataset stages the dataset directory, initial snapshot, and first
// WAL segment, then commits by rewriting the manifest. The manifest rename
// is the commit point: a crash before it leaves an orphan directory (swept
// at open), a crash after it leaves a fully recoverable dataset. The created
// dataset is open: its log is the empty segment just staged.
func (f *File) CreateDataset(cfg DatasetConfig, snap *Snapshot) error {
	if snap == nil {
		return errors.New("store: file datasets require an initial snapshot")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	if _, ok := f.manifest[cfg.Name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, cfg.Name)
	}
	dir := f.datasetDir(cfg.Name)
	// A leftover directory here is an orphan from an earlier crash (it has
	// no manifest entry); clear it before staging.
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeSnapshotFile(dir, snap); err != nil {
		return err
	}
	w, err := createSegment(dir, snap.Seq+1)
	if err != nil {
		return err
	}
	f.manifest[cfg.Name] = cfg
	if err = syncDir(dir); err == nil {
		err = f.writeManifest()
	}
	if err != nil {
		delete(f.manifest, cfg.Name)
		w.Close()
		os.RemoveAll(dir)
		return err
	}
	f.open[cfg.Name] = &fileDataset{dir: dir, w: w, wLen: int64(len(walMagic)), last: snap.Seq, sync: f.cfg.Sync}
	return nil
}

// DropDataset removes the manifest entry (the commit point), then the data.
func (f *File) DropDataset(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.manifest[name]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	old := f.manifest[name]
	delete(f.manifest, name)
	if err := f.writeManifest(); err != nil {
		f.manifest[name] = old
		return err
	}
	if ds, ok := f.open[name]; ok {
		ds.close()
		delete(f.open, name)
	}
	// Dropped from the manifest, the directory is already an orphan: a
	// failure here is retried by the sweep at next open.
	return os.RemoveAll(f.datasetDir(name))
}

// dataset returns a dataset's open log, locked. A dataset is open from its
// CreateDataset or its Replay on, until it is dropped or the store closed;
// one the manifest lists but this process has not replayed is not, and
// nothing is appended to it.
func (f *File) dataset(name string) (*fileDataset, error) {
	f.mu.Lock()
	ds := f.open[name]
	f.mu.Unlock()
	if ds != nil {
		ds.mu.Lock()
		if ds.w != nil {
			return ds, nil
		}
		ds.mu.Unlock()
	}
	return nil, fmt.Errorf("store: dataset %s is not open (create or replay it)", name)
}

// Append frames and durably logs one batch. Returns the bytes written.
func (f *File) Append(name string, b *Batch) (int64, error) {
	ds, err := f.dataset(name)
	if err != nil {
		return 0, err
	}
	defer ds.mu.Unlock()
	if b.Seq != ds.last+1 {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrSeqGap, b.Seq, ds.last+1)
	}
	dim := 0
	for _, op := range b.Ops {
		if op.Kind == engine.UpdateInsert {
			dim = len(op.Record)
			break
		}
	}
	payload := EncodeBatch(b, dim)
	frame := appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)
	_, err = ds.w.Write(frame)
	if err == nil && ds.sync == SyncAlways {
		err = ds.w.Sync()
	}
	if err != nil {
		// Cut the unacknowledged frame back off: left in place, it would be
		// replayed in place of the next batch logged under its seq.
		if ds.w.Truncate(ds.wLen) == nil {
			ds.w.Sync()
		}
		return 0, err
	}
	ds.wLen += int64(len(frame))
	ds.last = b.Seq
	return int64(len(frame)), nil
}

// WriteSnapshot atomically replaces the snapshot. When nothing is logged past
// it, the log restarts after it (see restart). That is also the re-basing
// move when the snapshot is AHEAD of the log (ds.last < snap.Seq — a wedged
// entry checkpointing unlogged state): the append cursor advances with it. A
// snapshot behind the log leaves the log as it is.
func (f *File) WriteSnapshot(name string, snap *Snapshot) error {
	ds, err := f.dataset(name)
	if err != nil {
		return err
	}
	defer ds.mu.Unlock()
	if err := writeSnapshotFile(ds.dir, snap); err != nil {
		return err
	}
	if ds.last > snap.Seq {
		return nil
	}
	return ds.restart(snap.Seq)
}

// restart starts the log afresh after seq: an empty segment wal-<seq+1>
// becomes the active one, and once its name is durable every other segment
// is removed. A segment whose removal fails is older than the fresh one, so
// the next Replay, after seq or later, starts its chain past it. The fresh
// segment may reuse the active one's name: createSegment truncates it, and
// whatever it held lies past ds.last, unacknowledged.
func (ds *fileDataset) restart(seq uint64) error {
	w, err := createSegment(ds.dir, seq+1)
	if err != nil {
		return err
	}
	if ds.w != nil {
		ds.w.Close()
	}
	ds.w, ds.wLen, ds.last = w, int64(len(walMagic)), seq
	if err := syncDir(ds.dir); err != nil {
		return err
	}
	paths, _ := filepath.Glob(filepath.Join(ds.dir, "wal-*.log"))
	for _, path := range paths {
		if path != w.Name() {
			os.Remove(path)
		}
	}
	return nil
}

// close closes the active segment; later calls on the handle fail.
func (ds *fileDataset) close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.w == nil {
		return nil
	}
	err := ds.w.Close()
	ds.w = nil
	return err
}

// LoadSnapshot reads and verifies the dataset's snapshot.
func (f *File) LoadSnapshot(name string) (*Snapshot, error) {
	f.mu.Lock()
	if _, ok := f.manifest[name]; !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	dir := f.datasetDir(name)
	f.mu.Unlock()
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.snap"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, name)
	}
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(raw, []byte(snapMagic)) {
		return nil, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	payload, rest, ok := readFrame(raw[len(snapMagic):])
	if !ok || len(rest) != 0 {
		return nil, fmt.Errorf("%w: snapshot frame", ErrCorrupt)
	}
	return DecodeSnapshot(payload)
}

// Replay opens the dataset's log in one walk over it (see the file layout
// comment), handing apply each batch past afterSeq under the epoch rule of
// Store.Replay, and leaves it open for appending. A handle already open is
// closed first: the walk re-reads the disk. The walk runs without the
// store's lock, as apply is the caller's code; the caller serializes the
// dataset's calls, so none runs meanwhile.
func (f *File) Replay(name string, afterSeq, epoch uint64, apply func(b *Batch, size int64) (uint64, error)) (uint64, error) {
	f.mu.Lock()
	cfg, known := f.manifest[name]
	if ds, ok := f.open[name]; ok {
		ds.close()
		delete(f.open, name)
	}
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return 0, errClosed
	}
	if !known {
		return 0, fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	// The epoch rule (see Store.Replay): eng is the engine's epoch, lead what
	// the served epoch runs ahead of it, taken up at a v2 frame from the
	// epoch logged before it.
	seq, eng, lead, logged := afterSeq, epoch, uint64(0), epoch
	ds, err := replayWAL(f.datasetDir(name), f.cfg.Sync, afterSeq, func(b *Batch, size int64) error {
		if b.Seq != seq+1 {
			return fmt.Errorf("%w: replay gap: batch %d after %d", ErrCorrupt, b.Seq, seq)
		}
		if b.Version != BatchV1 {
			if lead = logged - eng; logged != b.Epoch {
				return fmt.Errorf("%w: replay batch %d: engine at epoch %d, logged %d", ErrCorrupt, b.Seq, logged, b.Epoch)
			}
		}
		after, err := apply(b, size)
		if err != nil {
			return err
		}
		seq, eng, logged = b.Seq, after, after+lead
		if b.Version == BatchV1 {
			if logged != b.Epoch && !(cfg.Shards > 1 && logged < b.Epoch) {
				return fmt.Errorf("%w: replay batch %d: epoch %d, logged %d", ErrCorrupt, b.Seq, logged, b.Epoch)
			}
			logged = b.Epoch
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		ds.close()
		return 0, errClosed
	}
	f.open[name] = ds
	return logged, nil
}

// Close closes every open WAL handle.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	var first error
	for name, ds := range f.open {
		if err := ds.close(); err != nil && first == nil {
			first = err
		}
		delete(f.open, name)
	}
	return first
}

// replayWAL walks a dataset's log once, handing fn each batch past afterSeq,
// and returns it opened for appending after its last valid frame: the chain
// of segments from the newest one that can hold batch afterSeq+1 (the oldest
// when none can, and fn sees the gap), with the segments before the chain
// removed, the torn tail truncated, the segments past it dropped, and a log
// that ends before afterSeq restarted after it.
func replayWAL(dir string, sync SyncPolicy, afterSeq uint64, fn func(b *Batch, size int64) error) (*fileDataset, error) {
	// Glob sorts, and the zero-padded names sort by first seq.
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: no wal segments in %s", ErrCorrupt, dir)
	}
	firsts := make([]uint64, len(paths))
	for i, path := range paths {
		if _, err := fmt.Sscanf(filepath.Base(path), "wal-%d.log", &firsts[i]); err != nil {
			return nil, fmt.Errorf("%w: segment name %s", ErrCorrupt, filepath.Base(path))
		}
	}
	start := max(sort.Search(len(firsts), func(i int) bool { return firsts[i] > afterSeq+1 })-1, 0)
	for _, path := range paths[:start] {
		// Wholly behind afterSeq; a failed removal is retried next open.
		os.Remove(path)
	}
	// end is one past the last segment chained, wLen the length of its
	// valid prefix (the header alone once a torn header is reset).
	next, end, wLen := firsts[start], start, int64(0)
	for end < len(paths) && firsts[end] == next {
		valid, n, torn, err := scanSegment(paths[end], next, afterSeq, fn)
		if err != nil {
			return nil, err
		}
		next, end, wLen = n, end+1, max(valid, int64(len(walMagic)))
		if torn {
			// A segment created during a crash may have a torn header; it
			// holds no acknowledged frames, so it is reset to an empty one.
			if valid == 0 {
				err = os.WriteFile(paths[end-1], []byte(walMagic), 0o644)
			} else {
				err = os.Truncate(paths[end-1], valid)
			}
			if err != nil {
				return nil, err
			}
			break
		}
	}
	// Past a torn tail or a seq gap, no segment is reachable.
	for _, path := range paths[end:] {
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	ds := &fileDataset{dir: dir, last: next - 1, sync: sync}
	if ds.last < afterSeq {
		if err := ds.restart(afterSeq); err != nil {
			ds.close()
			return nil, err
		}
		return ds, nil
	}
	if ds.w, err = os.OpenFile(paths[end-1], os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	ds.wLen = wLen
	return ds, nil
}

// scanSegment walks a segment's frames verifying framing, CRC, and sequence
// contiguity starting at seq, handing each valid batch past afterSeq and its
// frame's byte length to visit and stopping at its first error. valid is
// the byte length of the segment's valid prefix (0 when even the header is
// torn), next the sequence number after its last valid frame, and torn
// whether bytes follow the valid prefix: a torn tail, to be truncated at
// valid.
func scanSegment(path string, seq, afterSeq uint64, visit func(b *Batch, size int64) error) (valid int64, next uint64, torn bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, err
	}
	if !bytes.HasPrefix(raw, []byte(walMagic)) {
		return 0, seq, true, nil
	}
	body := raw[len(walMagic):]
	for len(body) > 0 {
		payload, rest, ok := readFrame(body)
		if !ok {
			break
		}
		b, derr := DecodeBatch(payload)
		if derr != nil || b.Seq != seq {
			break
		}
		if b.Seq > afterSeq {
			if err := visit(b, int64(len(body)-len(rest))); err != nil {
				return 0, 0, false, err
			}
		}
		seq++
		body = rest
	}
	return int64(len(raw) - len(body)), seq, len(body) > 0, nil
}

// appendFrame appends payload to buf as one [len u32][crc32 u32][payload]
// frame: a WAL record, or the body of the snapshot file.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// readFrame splits the frame at the start of buf into its payload and the
// bytes after it; ok is false unless buf starts with a whole frame whose CRC
// matches.
func readFrame(buf []byte) (payload, rest []byte, ok bool) {
	if len(buf) < frameHeaderLen {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if uint64(n) > uint64(len(buf)-frameHeaderLen) {
		return nil, nil, false
	}
	payload, rest = buf[frameHeaderLen:frameHeaderLen+int(n)], buf[frameHeaderLen+int(n):]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, nil, false
	}
	return payload, rest, true
}

// createSegment creates an empty WAL segment whose first frame will carry
// firstSeq, returning it opened for append with the header durably written.
func createSegment(dir string, firstSeq uint64) (*os.File, error) {
	path := filepath.Join(dir, fmt.Sprintf("wal-%020d.log", firstSeq))
	w, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := io.WriteString(w, walMagic); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// writeSnapshotFile atomically replaces dir/snapshot.snap.
func writeSnapshotFile(dir string, snap *Snapshot) error {
	payload := EncodeSnapshot(snap)
	buf := append(make([]byte, 0, len(snapMagic)+frameHeaderLen+len(payload)), snapMagic...)
	buf = appendFrame(buf, payload)
	return atomicWrite(filepath.Join(dir, "snapshot.snap"), buf)
}

// atomicWrite replaces path with data via temp file + fsync + rename +
// directory fsync: readers see the old or the new complete file, never a
// torn one, across any crash.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making renames and creations within it
// durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
