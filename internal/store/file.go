package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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
//	datasets/<name>/wal-<firstseq>.log — WAL segments, append-only
//
// Every WAL segment starts with an 8-byte magic header and holds CRC-framed
// records: [len u32][crc32 u32][payload], one applied batch per frame. The
// segment's first sequence number is its filename; frames are contiguous, so
// any prefix of segments+frames is a valid replay input. A crash can only
// tear the final frame (appends are sequential); open detects the first
// invalid frame, truncates the segment there, and drops later segments —
// torn batches disappear atomically, half-applied states cannot exist.
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

	frameHeaderLen = 8       // len u32 + crc u32
	maxFrameLen    = 1 << 28 // sanity cap on a single frame

	// DefaultSegmentBytes is the WAL segment roll threshold when
	// FileConfig.SegmentBytes is zero.
	DefaultSegmentBytes = 8 << 20
)

// FileConfig tunes a file-backed store.
type FileConfig struct {
	// Sync selects when WAL appends reach stable storage (SyncAlways is the
	// zero value: fsync before acknowledging).
	Sync SyncPolicy
	// SegmentBytes rolls the WAL to a fresh segment once the active one
	// exceeds this size; zero selects DefaultSegmentBytes.
	SegmentBytes int64
}

// File is the durable Store: segmented WAL + atomic snapshots + manifest,
// all under one directory.
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
	roll int64
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
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
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

// Append frames and durably logs one batch, rolling the segment at the
// configured size. Returns the bytes written.
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
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)

	if ds.wLen+int64(len(frame)) > ds.roll && ds.wLen > int64(len(walMagic)) {
		if err := ds.rollSegment(b.Seq); err != nil {
			return 0, err
		}
	}
	if _, err := ds.w.Write(frame); err != nil {
		return 0, err
	}
	if ds.sync == SyncAlways {
		if err := ds.w.Sync(); err != nil {
			return 0, err
		}
	}
	ds.wLen += int64(len(frame))
	ds.last = b.Seq
	return int64(len(frame)), nil
}

// rollSegment closes the active segment and starts a fresh one whose first
// sequence number is nextSeq. Caller holds ds.mu.
func (ds *fileDataset) rollSegment(nextSeq uint64) error {
	w, err := createSegment(ds.dir, nextSeq)
	if err != nil {
		return err
	}
	if err := syncDir(ds.dir); err != nil {
		w.Close()
		return err
	}
	ds.w.Close()
	ds.w = w
	ds.wLen = int64(len(walMagic))
	ds.segs = append(ds.segs, walSegment{firstSeq: nextSeq, path: w.Name()})
	return nil
}

// WriteSnapshot atomically replaces the snapshot, then prunes WAL segments
// it fully covers (a segment is covered when the next segment starts at or
// before snap.Seq+1) and rotates the active segment if even it is covered.
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
	// Prune: every segment whose successor starts within the snapshot.
	keepFrom := 0
	for keepFrom+1 < len(ds.segs) && ds.segs[keepFrom+1].firstSeq <= snap.Seq+1 {
		os.Remove(ds.segs[keepFrom].path)
		keepFrom++
	}
	ds.segs = append(ds.segs[:0], ds.segs[keepFrom:]...)
	// Rotate the active segment when the snapshot covers everything in it:
	// replay then starts from an empty log. This is also the re-basing move
	// when the snapshot is AHEAD of the log (ds.last < snap.Seq — a wedged
	// entry checkpointing unlogged state, or a SyncNever crash that lost
	// flushed-but-not-synced frames behind an fsynced snapshot): the fresh
	// segment starts at snap.Seq+1, so the append cursor advances with it.
	if len(ds.segs) == 1 && ds.last <= snap.Seq && ds.segs[0].firstSeq <= snap.Seq {
		old := ds.segs[0]
		w, err := createSegment(ds.dir, snap.Seq+1)
		if err != nil {
			return err
		}
		if err := syncDir(ds.dir); err != nil {
			w.Close()
			return err
		}
		ds.w.Close()
		ds.w = w
		ds.wLen = int64(len(walMagic))
		ds.segs[0] = walSegment{firstSeq: snap.Seq + 1, path: w.Name()}
		ds.last = snap.Seq
		os.Remove(old.path)
	}
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
	if len(raw) < len(snapMagic)+frameHeaderLen || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	body := raw[len(snapMagic):]
	n := binary.LittleEndian.Uint32(body[0:4])
	crc := binary.LittleEndian.Uint32(body[4:8])
	payload := body[frameHeaderLen:]
	if uint32(len(payload)) != n || crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: snapshot frame", ErrCorrupt)
	}
	return DecodeSnapshot(payload)
}

// Replay streams the logged batches after afterSeq, in order.
func (f *File) Replay(name string, afterSeq uint64, fn func(*Batch) error) error {
	ds, err := f.dataset(name)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	segs := append([]walSegment(nil), ds.segs...)
	last := ds.last
	ds.mu.Unlock()
	for _, seg := range segs {
		if err := replaySegment(seg, afterSeq, last, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment decodes one segment's frames, invoking fn for seq >
// afterSeq. Frames past `last` (none in practice: appends are serialized
// with replay by the registry) are ignored.
func replaySegment(seg walSegment, afterSeq, last uint64, fn func(*Batch) error) error {
	raw, err := os.ReadFile(seg.path)
	if err != nil {
		return err
	}
	if len(raw) < len(walMagic) || string(raw[:len(walMagic)]) != walMagic {
		return fmt.Errorf("%w: wal header in %s", ErrCorrupt, seg.path)
	}
	body := raw[len(walMagic):]
	want := seg.firstSeq
	for len(body) >= frameHeaderLen {
		n := binary.LittleEndian.Uint32(body[0:4])
		crc := binary.LittleEndian.Uint32(body[4:8])
		if int64(n) > maxFrameLen || len(body) < frameHeaderLen+int(n) {
			return fmt.Errorf("%w: torn frame survived open in %s", ErrCorrupt, seg.path)
		}
		payload := body[frameHeaderLen : frameHeaderLen+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			return fmt.Errorf("%w: frame crc in %s", ErrCorrupt, seg.path)
		}
		b, err := DecodeBatch(payload)
		if err != nil {
			return err
		}
		if b.Seq != want {
			return fmt.Errorf("%w: frame seq %d, want %d in %s", ErrCorrupt, b.Seq, want, seg.path)
		}
		want++
		if b.Seq > afterSeq && b.Seq <= last {
			if err := fn(b); err != nil {
				return err
			}
		}
		body = body[frameHeaderLen+int(n):]
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
	ds := &fileDataset{dir: dir, sync: cfg.Sync, roll: cfg.SegmentBytes}
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
		validLen, nextSeq, err := scanSegment(seg, want)
		if err != nil {
			return nil, err
		}
		if validLen >= 0 {
			// Torn tail inside this segment: truncate it here and drop
			// every later segment.
			if err := os.Truncate(seg.path, validLen); err != nil {
				return nil, err
			}
			want = nextSeq
			cut = i + 1
			break
		}
		want = nextSeq
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
// contiguity starting at wantSeq. It returns validLen >= 0 (the byte offset
// of the first invalid frame — the truncation point) when it finds a torn
// tail, or validLen = -1 when the whole segment is clean. nextSeq is the
// sequence number following the last valid frame.
func scanSegment(seg walSegment, wantSeq uint64) (validLen int64, nextSeq uint64, err error) {
	raw, rerr := os.ReadFile(seg.path)
	if rerr != nil {
		return 0, 0, rerr
	}
	if len(raw) < len(walMagic) || string(raw[:len(walMagic)]) != walMagic {
		// A segment created during a crash may have a torn header; it holds
		// no acknowledged frames, so reset it to an empty segment.
		if werr := os.WriteFile(seg.path, []byte(walMagic), 0o644); werr != nil {
			return 0, 0, werr
		}
		return int64(len(walMagic)), wantSeq, nil
	}
	off := int64(len(walMagic))
	body := raw[len(walMagic):]
	for len(body) > 0 {
		if len(body) < frameHeaderLen {
			return off, wantSeq, nil
		}
		n := binary.LittleEndian.Uint32(body[0:4])
		crc := binary.LittleEndian.Uint32(body[4:8])
		if int64(n) > maxFrameLen || len(body) < frameHeaderLen+int(n) {
			return off, wantSeq, nil
		}
		payload := body[frameHeaderLen : frameHeaderLen+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			return off, wantSeq, nil
		}
		b, derr := DecodeBatch(payload)
		if derr != nil || b.Seq != wantSeq {
			return off, wantSeq, nil
		}
		wantSeq++
		off += frameHeaderLen + int64(n)
		body = body[frameHeaderLen+int(n):]
	}
	return -1, wantSeq, nil
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
	buf := make([]byte, 0, len(snapMagic)+frameHeaderLen+len(payload))
	buf = append(buf, snapMagic...)
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
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
