package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openReplay opens a log and replays it, collecting the records.
func openReplay(t *testing.T, dir string, opts Options) (*Log, [][]byte) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var recs [][]byte
	if _, err := l.Replay(func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return l, recs
}

func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func wantRecords(t *testing.T, recs [][]byte, start, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		want := fmt.Sprintf("record-%04d", start+i)
		if string(r) != want {
			t.Fatalf("record %d = %q, want %q", i, r, want)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := openReplay(t, dir, Options{Name: "wal.test.rt"})
	wantRecords(t, recs, 0, 0)
	appendN(t, l, 0, 25)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	l2, recs := openReplay(t, dir, Options{Name: "wal.test.rt"})
	defer l2.Close()
	wantRecords(t, recs, 0, 25)
	// The reopened log keeps appending where the first left off.
	appendN(t, l2, 25, 5)
	l2.Close()
	l3, recs := openReplay(t, dir, Options{Name: "wal.test.rt"})
	defer l3.Close()
	wantRecords(t, recs, 0, 30)
}

func TestAppendBeforeReplay(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Name: "wal.test.norpl"})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("x")); err == nil {
		t.Fatal("Append before Replay succeeded, want error")
	}
	if err := l.WriteSnapshot([]byte("s")); err == nil {
		t.Fatal("WriteSnapshot before Replay succeeded, want error")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Name: "wal.test.rot", SegmentBytes: 128, Policy: SyncNever}
	l, _ := openReplay(t, dir, opts)
	appendN(t, l, 0, 40) // 40 * (8+11) bytes >> several 128-byte segments
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want >= 3 after rotation", len(segs))
	}
	l2, recs := openReplay(t, dir, opts)
	defer l2.Close()
	wantRecords(t, recs, 0, 40)
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Name: "wal.test.snap", SegmentBytes: 128, Policy: SyncNever}
	l, _ := openReplay(t, dir, opts)
	appendN(t, l, 0, 40)
	state := []byte("state-after-40")
	if err := l.WriteSnapshot(state); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// Everything before the snapshot is compacted away.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("got %d segments after compaction, want 1", len(segs))
	}
	appendN(t, l, 40, 3)
	l.Close()

	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap, ok := l2.Snapshot()
	if !ok || !bytes.Equal(snap, state) {
		t.Fatalf("Snapshot = %q, %v; want %q, true", snap, ok, state)
	}
	var recs [][]byte
	if _, err := l2.Replay(func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Only the records after the snapshot replay.
	wantRecords(t, recs, 40, 3)

	// A second compaction supersedes the first snapshot file.
	if err := l2.WriteSnapshot([]byte("state-after-43")); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshot files, want 1", len(snaps))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Name: "wal.test.torn"}
	l, _ := openReplay(t, dir, opts)
	appendN(t, l, 0, 10)
	l.Close()

	// Tear the tail: cut the last record short mid-payload.
	seg := filepath.Join(dir, "seg-00000001.wal")
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	var warns []string
	opts.Logf = func(format string, args ...any) {
		warns = append(warns, fmt.Sprintf(format, args...))
	}
	l2, recs := openReplay(t, dir, opts)
	wantRecords(t, recs, 0, 9)
	if len(warns) == 0 || !strings.Contains(warns[0], "truncating") {
		t.Fatalf("want truncation warning, got %q", warns)
	}
	// The damaged suffix is gone from disk (the file ends at the start of
	// the torn record) and appends continue cleanly.
	if st2, _ := os.Stat(seg); st2.Size() != st.Size()-int64(headerSize+11) {
		t.Fatalf("torn tail not truncated: size %d", st2.Size())
	}
	appendN(t, l2, 9, 1)
	l2.Close()
	l3, recs := openReplay(t, dir, opts)
	defer l3.Close()
	wantRecords(t, recs, 0, 10)
}

func TestCorruptRecordTruncatesAndDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Name: "wal.test.crc", SegmentBytes: 128, Policy: SyncNever}
	l, _ := openReplay(t, dir, opts)
	appendN(t, l, 0, 40)
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}

	// Flip a payload byte in the SECOND segment: replay must keep segment
	// one, truncate segment two at the damage, and drop every later
	// segment (ordering past the damage is unsafe).
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+2] ^= 0xFF
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	var warns []string
	opts.Logf = func(format string, args ...any) {
		warns = append(warns, fmt.Sprintf(format, args...))
	}
	l2, recs := openReplay(t, dir, opts)
	defer l2.Close()

	// All of segment one's records survive; segment two contributes none
	// (the damage is in its first record).
	perSeg := 128/(headerSize+11) + 1 // records per full segment (rotation is post-append)
	wantRecords(t, recs, 0, perSeg)
	if len(warns) < 2 {
		t.Fatalf("want corrupt + drop warnings, got %q", warns)
	}
	for _, p := range segs[2:] {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("segment %s written after damage should be dropped", filepath.Base(p))
		}
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Name: "wal.test.badsnap", Policy: SyncNever}
	l, _ := openReplay(t, dir, opts)
	appendN(t, l, 0, 5)
	if err := l.WriteSnapshot([]byte("full-state")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 2)
	l.Close()

	// Corrupt the snapshot body; boot must fall back to replay-only
	// rather than refusing to start.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	data, _ := os.ReadFile(snaps[0])
	data[headerSize] ^= 0xFF
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	var warns []string
	opts.Logf = func(format string, args ...any) {
		warns = append(warns, fmt.Sprintf(format, args...))
	}
	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open with corrupt snapshot: %v", err)
	}
	defer l2.Close()
	if _, ok := l2.Snapshot(); ok {
		t.Fatal("corrupt snapshot should not be served")
	}
	if len(warns) == 0 || !strings.Contains(warns[0], "unreadable snapshot") {
		t.Fatalf("want unreadable-snapshot warning, got %q", warns)
	}
	recs := 0
	if _, err := l2.Replay(func([]byte) error { recs++; return nil }); err != nil {
		t.Fatal(err)
	}
	// The compacted prefix is gone with the snapshot; only post-snapshot
	// records remain.
	if recs != 2 {
		t.Fatalf("replayed %d records, want 2", recs)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"never", SyncNever, true},
		{"bogus", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}

	// SyncAlways fsyncs per append; SyncNever does not fsync on append.
	la, _ := openReplay(t, t.TempDir(), Options{Name: "wal.test.fsalways", Policy: SyncAlways})
	defer la.Close()
	base := la.met.fsyncs.Value()
	appendN(t, la, 0, 3)
	if got := la.met.fsyncs.Value() - base; got != 3 {
		t.Errorf("SyncAlways: %d fsyncs for 3 appends, want 3", got)
	}
	ln, _ := openReplay(t, t.TempDir(), Options{Name: "wal.test.fsnever", Policy: SyncNever})
	defer ln.Close()
	base = ln.met.fsyncs.Value()
	appendN(t, ln, 0, 3)
	if got := ln.met.fsyncs.Value() - base; got != 0 {
		t.Errorf("SyncNever: %d fsyncs for 3 appends, want 0", got)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	l, _ := openReplay(t, t.TempDir(), Options{Name: "wal.test.oversize", MaxRecordBytes: 16})
	defer l.Close()
	if err := l.Append(make([]byte, 17)); err == nil {
		t.Fatal("oversize append succeeded, want error")
	}
	if err := l.Append(make([]byte, 16)); err != nil {
		t.Fatalf("at-limit append failed: %v", err)
	}
}

func TestMetricsCounters(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Name: "wal.test.metrics", Policy: SyncNever}
	l, _ := openReplay(t, dir, opts)
	// The counters are process-global per log name: measure deltas so a
	// repeated run (-count=N) sees the same figures.
	baseAppends, baseSnaps, baseBytes := l.met.appends.Value(), l.met.snapshots.Value(), l.met.bytes.Value()
	appendN(t, l, 0, 4)
	if err := l.WriteSnapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	if got := l.met.appends.Value() - baseAppends; got != 4 {
		t.Errorf("appends = %d, want 4", got)
	}
	if got := l.met.snapshots.Value() - baseSnaps; got != 1 {
		t.Errorf("snapshots = %d, want 1", got)
	}
	if got := l.met.bytes.Value() - baseBytes; got != 4*(headerSize+11) {
		t.Errorf("bytes = %d, want %d", got, 4*(headerSize+11))
	}
	l.Close()
}

func TestSizeTracksLiveSegments(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Name: "wal.test.size", SegmentBytes: 128, Policy: SyncNever}
	l, _ := openReplay(t, dir, opts)
	appendN(t, l, 0, 40)
	sz := l.Size()
	if want := int64(40 * (headerSize + 11)); sz != want {
		t.Fatalf("Size = %d, want %d", sz, want)
	}
	if err := l.WriteSnapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	if sz := l.Size(); sz != 0 {
		t.Fatalf("Size after compaction = %d, want 0", sz)
	}
	l.Close()
}
