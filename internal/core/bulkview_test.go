package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/wal"
)

// bigViewStmt builds ~5.4 M rows over the full campus series: 301 rows
// per tuple. Logged as one record, the view would need ~180 MB, far past
// wal.MaxRecordBytes.
const bigViewStmt = "CREATE VIEW big AS DENSITY r OVER t OMEGA delta=0.05, n=300 METRIC VT WINDOW 90 FROM campus"

// viewDigest checks a view's invariants and returns its row count and a
// SHA-256 over every row's exact bits, in order: equal digests mean the
// views are equal row for row.
func viewDigest(t *testing.T, p *storage.ProbTable) (int, [sha256.Size]byte) {
	t.Helper()
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [40]byte
	n := 0
	err := p.ForEachGroupCols(math.MinInt64, math.MaxInt64, func(g storage.GroupCols) error {
		for i := range g.Prob {
			binary.LittleEndian.PutUint64(buf[0:], uint64(g.T))
			binary.LittleEndian.PutUint64(buf[8:], uint64(int64(g.Lambda[i])))
			binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(g.Lo[i]))
			binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(g.Hi[i]))
			binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(g.Prob[i]))
			h.Write(buf[:])
		}
		n += len(g.Prob)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return n, sum
}

// engineViewDigest opens the durable engine in dir, digests its "big"
// view and closes the engine.
func engineViewDigest(t *testing.T, dir string) (int, [sha256.Size]byte) {
	t.Helper()
	e, err := OpenEngine(Config{DataDir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.View("big")
	if err != nil {
		t.Fatal(err)
	}
	n, sum := viewDigest(t, p)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return n, sum
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableCreateViewBeyondRecordLimit is the regression test for the
// commit-log size cap: a durable CREATE VIEW whose rows encode to far more
// than wal.MaxRecordBytes must succeed, log no record above the limit,
// and come back equal, row for row, to an in-memory build — replayed from
// the WAL alone after a crash, and reopened from checkpoint segments.
func TestDurableCreateViewBeyondRecordLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 5.4 M-row views")
	}
	if raceEnabled {
		t.Skip("a 5.4 M-row view under the race detector needs several GB of shadow memory")
	}
	// Each phase holds one ~400 MB view (rows plus index); collect
	// eagerly so the phases do not stack up in the heap.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	campus := dataset.Campus(dataset.CampusConfig{Seed: 1})

	mem := NewEngine()
	if err := mem.RegisterSeries("campus", campus.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Exec(bigViewStmt); err != nil {
		t.Fatal(err)
	}
	memView, err := mem.View("big")
	if err != nil {
		t.Fatal(err)
	}
	wantRows, want := viewDigest(t, memView)
	if wantRows < 5_000_000 {
		t.Fatalf("in-memory view holds %d rows, want the ~5.4 M-row regression size", wantRows)
	}
	mem, memView = nil, nil

	dir := filepath.Join(t.TempDir(), "data")
	e, err := OpenEngine(Config{DataDir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterSeries("campus", campus); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(bigViewStmt); err != nil {
		t.Fatalf("durable CREATE VIEW of %d rows: %v", wantRows, err)
	}

	// Every record in the log is within the framing limit.
	walDir := filepath.Join(dir, "wal")
	seqs, err := wal.List(wal.OS(), walDir)
	if err != nil {
		t.Fatal(err)
	}
	records, largest := 0, 0
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(walDir, wal.FileName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		_, clean, err := wal.ReadRecords(bytes.NewReader(data), func(p []byte) error {
			records++
			largest = max(largest, len(p))
			return nil
		})
		if err != nil || !clean {
			t.Fatalf("%s: clean=%v err=%v", wal.FileName(seq), clean, err)
		}
	}
	if largest > wal.MaxRecordBytes || records < 2 {
		t.Fatalf("%d WAL records, largest %d bytes (limit %d)", records, largest, wal.MaxRecordBytes)
	}

	// A crash before any checkpoint leaves the view only in the WAL: a
	// copy of the directory taken now recovers it by replay.
	crashed := filepath.Join(t.TempDir(), "crashed")
	copyDir(t, walDir, filepath.Join(crashed, "wal"))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = nil

	if n, got := engineViewDigest(t, crashed); n != wantRows || got != want {
		t.Fatalf("view replayed from the WAL: %d rows, digest match %v; want %d rows", n, got == want, wantRows)
	}
	if n, got := engineViewDigest(t, dir); n != wantRows || got != want {
		t.Fatalf("view reopened from segments: %d rows, digest match %v; want %d rows", n, got == want, wantRows)
	}
}
