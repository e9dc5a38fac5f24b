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
	"slices"
	"sort"
	"strconv"
	"strings"
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
// one) or in a directory an older build rolled by size; open chains them by
// sequence number. A crash can only tear the final frame (appends are
// sequential, and a failed append cuts its own frame back off); open detects
// the first invalid frame, truncates the segment there, and drops later
// segments — torn batches disappear atomically, half-applied states cannot
// exist.
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
	segs []walSegment // sorted by firstSeq; the last one is active
	w    *os.File     // active segment, opened for append
	wLen int64
	last uint64 // last durably framed batch seq
	sync SyncPolicy
}

type walSegment struct {
	firstSeq uint64
	path     string
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
// at open), a crash after it leaves a fully recoverable dataset.
func (f *File) CreateDataset(cfg DatasetConfig, snap *Snapshot) error {
	if snap == nil {
		return errors.New("store: file datasets require an initial snapshot")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("store: closed")
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
	if _, err := createSegment(dir, snap.Seq+1); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	f.manifest[cfg.Name] = cfg
	if err := f.writeManifest(); err != nil {
		delete(f.manifest, cfg.Name)
		os.RemoveAll(dir)
		return err
	}
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
		ds.mu.Lock()
		if ds.w != nil {
			ds.w.Close()
			ds.w = nil
		}
		ds.mu.Unlock()
		delete(f.open, name)
	}
	// Dropped from the manifest, the directory is already an orphan: a
	// failure here is retried by the sweep at next open.
	return os.RemoveAll(f.datasetDir(name))
}

// dataset returns the open WAL state for a dataset, scanning (and repairing
// the tail of) its segments on first use.
func (f *File) dataset(name string) (*fileDataset, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, errors.New("store: closed")
	}
	if ds, ok := f.open[name]; ok {
		return ds, nil
	}
	if _, ok := f.manifest[name]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	ds, err := openDatasetWAL(f.datasetDir(name), f.cfg)
	if err != nil {
		return nil, err
	}
	f.open[name] = ds
	return ds, nil
}

// Append frames and durably logs one batch. Returns the bytes written.
func (f *File) Append(name string, b *Batch) (int64, error) {
	ds, err := f.dataset(name)
	if err != nil {
		return 0, err
	}
	ds.mu.Lock()
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
// it, the log restarts: a fresh segment starting at snap.Seq+1 becomes the
// active one and every other segment is removed. That is also the re-basing
// move when the snapshot is AHEAD of the log (ds.last < snap.Seq — a wedged
// entry checkpointing unlogged state, or a SyncNever crash that lost
// flushed-but-not-synced frames behind an fsynced snapshot): the append
// cursor advances with it. A snapshot behind the log leaves the log as it is.
func (f *File) WriteSnapshot(name string, snap *Snapshot) error {
	ds, err := f.dataset(name)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := writeSnapshotFile(ds.dir, snap); err != nil {
		return err
	}
	if ds.last > snap.Seq {
		return nil
	}
	// The fresh segment may reuse the active one's name: createSegment
	// truncates it, and whatever it held lies past ds.last, unacknowledged.
	w, err := createSegment(ds.dir, snap.Seq+1)
	if err != nil {
		return err
	}
	ds.w.Close()
	ds.w, ds.wLen, ds.last = w, int64(len(walMagic)), snap.Seq
	fresh := walSegment{firstSeq: snap.Seq + 1, path: w.Name()}
	old := slices.DeleteFunc(ds.segs, func(seg walSegment) bool { return seg.path == fresh.path })
	ds.segs = append(old, fresh)
	// Remove the old segments only once the fresh one's name is durable.
	if err := syncDir(ds.dir); err != nil {
		return err
	}
	for _, seg := range old {
		os.Remove(seg.path)
	}
	ds.segs = []walSegment{fresh}
	return nil
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

// Replay streams the logged batches after afterSeq, in order.
func (f *File) Replay(name string, afterSeq uint64, fn func(b *Batch, size int64) error) error {
	ds, err := f.dataset(name)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	segs := append([]walSegment(nil), ds.segs...)
	last := ds.last
	ds.mu.Unlock()
	for _, seg := range segs {
		_, _, torn, err := scanSegment(seg.path, seg.firstSeq, func(b *Batch, size int64) error {
			// Frames past last (none in practice: appends are serialized
			// with replay by the registry) are ignored.
			if b.Seq > afterSeq && b.Seq <= last {
				return fn(b, size)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if torn {
			return fmt.Errorf("%w: torn frame survived open in %s", ErrCorrupt, seg.path)
		}
	}
	return nil
}

// LastSeq returns the last durably framed sequence number.
func (f *File) LastSeq(name string) (uint64, error) {
	ds, err := f.dataset(name)
	if err != nil {
		return 0, err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.last, nil
}

// Close closes every open WAL handle.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	var first error
	for name, ds := range f.open {
		ds.mu.Lock()
		if ds.w != nil {
			if err := ds.w.Close(); err != nil && first == nil {
				first = err
			}
			ds.w = nil
		}
		ds.mu.Unlock()
		delete(f.open, name)
	}
	return first
}

// openDatasetWAL scans a dataset's segments, truncating the torn tail (the
// suffix starting at the first invalid frame) and dropping any segments
// after it, then opens the last segment for appending.
func openDatasetWAL(dir string, cfg FileConfig) (*fileDataset, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var segs []walSegment
	for _, path := range names {
		base := filepath.Base(path)
		numeric := strings.TrimSuffix(strings.TrimPrefix(base, "wal-"), ".log")
		firstSeq, err := strconv.ParseUint(numeric, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: segment name %s", ErrCorrupt, base)
		}
		segs = append(segs, walSegment{firstSeq: firstSeq, path: path})
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("%w: no wal segments in %s", ErrCorrupt, dir)
	}
	ds := &fileDataset{dir: dir, sync: cfg.Sync}
	want := segs[0].firstSeq
	cut := -1 // first segment index made invalid by a torn tail
	for i, seg := range segs {
		if seg.firstSeq != want {
			// A gap between segments: everything from here on is
			// unreachable by contiguous replay (e.g. segments after a
			// truncated predecessor). Drop it.
			cut = i
			break
		}
		valid, next, torn, err := scanSegment(seg.path, want, nil)
		if err != nil {
			return nil, err
		}
		want = next
		if torn {
			// Torn tail inside this segment: truncate it here and drop
			// every later segment. A segment created during a crash may
			// have a torn header; it holds no acknowledged frames, so it is
			// reset to an empty segment.
			if valid == 0 {
				err = os.WriteFile(seg.path, []byte(walMagic), 0o644)
			} else {
				err = os.Truncate(seg.path, valid)
			}
			if err != nil {
				return nil, err
			}
			cut = i + 1
			break
		}
	}
	if cut >= 0 {
		for _, seg := range segs[cut:] {
			if err := os.Remove(seg.path); err != nil {
				return nil, err
			}
		}
		if cut == 0 {
			return nil, fmt.Errorf("%w: first wal segment unreachable in %s", ErrCorrupt, dir)
		}
		segs = segs[:cut]
	}
	ds.segs = segs
	ds.last = want - 1
	active := segs[len(segs)-1]
	w, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := w.Stat()
	if err != nil {
		w.Close()
		return nil, err
	}
	ds.w = w
	ds.wLen = st.Size()
	return ds, nil
}

// scanSegment walks a segment's frames verifying framing, CRC, and sequence
// contiguity starting at seq, handing each valid batch and its frame's byte
// length to visit (when not nil) and stopping at its first error. valid is
// the byte length of the segment's valid prefix (0 when even the header is
// torn), next the sequence number after its last valid frame, and torn
// whether bytes follow the valid prefix: a torn tail, to be truncated at
// valid.
func scanSegment(path string, seq uint64, visit func(b *Batch, size int64) error) (valid int64, next uint64, torn bool, err error) {
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
		if visit != nil {
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
	w, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
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
