package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// record returns payload as a WAL record: the frame header reserved in
// front, as every writer lays records out for Log.Append.
func record(payload []byte) []byte {
	return append(make([]byte, wal.HeaderBytes, wal.HeaderBytes+len(payload)), payload...)
}

func replayAll(t *testing.T, fs wal.FS, dir string) ([][]byte, []bool) {
	t.Helper()
	seqs, err := wal.List(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	var cleans []bool
	for _, seq := range seqs {
		clean, err := wal.ReplayFile(fs, dir, seq, func(p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cleans = append(cleans, clean)
		if !clean {
			break
		}
	}
	return payloads, cleans
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := faultfs.New()
	log, err := wal.OpenLog(fs, "wal", 1, wal.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{byte(i)}, i)))
		want = append(want, p)
		if err := log.Append(record(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, fs, "wal")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch: got %d records, want %d", len(got), len(want))
	}
}

func TestRotationSplitsFiles(t *testing.T) {
	fs := faultfs.New()
	log, err := wal.OpenLog(fs, "wal", 1, wal.Options{FileBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := log.Append(record(bytes.Repeat([]byte{byte(i)}, 32))); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := wal.List(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 2 {
		t.Fatalf("expected rotation to produce multiple files, got %v", seqs)
	}
	got, _ := replayAll(t, fs, "wal")
	if len(got) != 20 {
		t.Fatalf("replayed %d records, want 20", len(got))
	}
}

func TestExplicitRotateBoundary(t *testing.T) {
	fs := faultfs.New()
	log, err := wal.OpenLog(fs, "wal", 7, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(record([]byte("before"))); err != nil {
		t.Fatal(err)
	}
	live, err := log.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if live != 8 {
		t.Fatalf("Rotate live seq = %d, want 8", live)
	}
	if err := log.Append(record([]byte("after"))); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Records appended before the rotation are only in files < live.
	var before [][]byte
	if _, err := wal.ReplayFile(fs, "wal", 7, func(p []byte) error {
		before = append(before, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || string(before[0]) != "before" {
		t.Fatalf("sealed file holds %q", before)
	}
}

func TestTornTailTruncatedOnReplay(t *testing.T) {
	fs := faultfs.New()
	log, err := wal.OpenLog(fs, "wal", 1, wal.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(record([]byte("good-1"))); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(record([]byte("good-2"))); err != nil {
		t.Fatal(err)
	}
	log.Close()
	// Corrupt the tail: append garbage bytes shaped like a torn record.
	name := "wal/" + wal.FileName(1)
	data, ok := fs.ReadBack(name)
	if !ok {
		t.Fatal("missing wal file")
	}
	torn := append(data, 0xFF, 0x01, 0x00, 0x00, 0xde, 0xad)
	fs.WriteExisting(name, torn)

	var got [][]byte
	clean, err := wal.ReplayFile(fs, "wal", 1, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clean {
		t.Fatal("torn tail reported clean")
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
	// The tail was physically truncated: a second replay is clean.
	after, _ := fs.ReadBack(name)
	if len(after) != len(data) {
		t.Fatalf("file is %d bytes after truncation, want %d", len(after), len(data))
	}
	clean, err = wal.ReplayFile(fs, "wal", 1, nil)
	if err != nil || !clean {
		t.Fatalf("replay after truncation: clean=%v err=%v", clean, err)
	}
}

func TestPoisonAfterWriteFailure(t *testing.T) {
	fs := faultfs.New()
	log, err := wal.OpenLog(fs, "wal", 1, wal.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(record([]byte("ok"))); err != nil {
		t.Fatal(err)
	}
	fs.FailAt(fs.Ops()+1, faultfs.DropUnsynced)
	if err := log.Append(record([]byte("boom"))); err == nil {
		t.Fatal("append survived injected crash")
	}
	// Every later append refuses with ErrPoisoned — the tail is suspect.
	if err := log.Append(record([]byte("later"))); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("append after failure = %v, want ErrPoisoned", err)
	}
	if err := log.Sync(); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("sync after failure = %v, want ErrPoisoned", err)
	}
}

func TestUnsyncedTailLostWithoutFsync(t *testing.T) {
	fs := faultfs.New()
	log, err := wal.OpenLog(fs, "wal", 1, wal.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(record([]byte("synced"))); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(record([]byte("cached-only"))); err != nil {
		t.Fatal(err)
	}
	// Crash now: take the surviving image without closing the log.
	got, _ := replayAll(t, fs.CrashImage(), "wal")
	if len(got) != 1 || string(got[0]) != "synced" {
		t.Fatalf("survivors = %q, want only the synced record", got)
	}
}

func TestRecordSizeLimit(t *testing.T) {
	fs := faultfs.New()
	log, err := wal.OpenLog(fs, "wal", 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(make([]byte, wal.HeaderBytes+wal.MaxRecordBytes+1)); !errors.Is(err, wal.ErrTooLarge) {
		t.Fatalf("oversize append = %v, want ErrTooLarge", err)
	}
	// The limit rejection does not poison the log.
	if err := log.Append(record([]byte("fine"))); err != nil {
		t.Fatalf("append after rejection: %v", err)
	}
}

// TestAppendFramesInPlace pins the copy-free append: the frame header is
// written into the record's reserved prefix and the record reaches the
// file in exactly one write.
func TestAppendFramesInPlace(t *testing.T) {
	fs := faultfs.New()
	log, err := wal.OpenLog(fs, "wal", 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := record([]byte("payload"))
	before := fs.Ops()
	if err := log.Append(rec); err != nil {
		t.Fatal(err)
	}
	if ops := fs.Ops() - before; ops != 1 {
		t.Fatalf("append took %d filesystem ops, want one write", ops)
	}
	if want := wal.Frame(record([]byte("payload"))); !bytes.Equal(rec, want) {
		t.Fatalf("record after append = %x, want framed %x", rec, want)
	}
	if err := log.Append([]byte("short")); err == nil {
		t.Fatal("append of a record without room for its header succeeded")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, fs, "wal")
	if len(got) != 1 || string(got[0]) != "payload" {
		t.Fatalf("replayed %q, want the one payload", got)
	}
}

func TestParseFileName(t *testing.T) {
	name := wal.FileName(42)
	seq, ok := wal.ParseFileName(name)
	if !ok || seq != 42 {
		t.Fatalf("ParseFileName(%q) = %d, %v", name, seq, ok)
	}
	for _, bad := range []string{"wal-123.log", "seg-0000000000000001.log", "wal-0000000000000001.seg", "MANIFEST"} {
		if _, ok := wal.ParseFileName(bad); ok {
			t.Fatalf("ParseFileName(%q) accepted", bad)
		}
	}
}
