package durable

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// benchStore opens a store over a fresh in-memory filesystem with one
// empty raw table and one streamed view, automatic checkpoints off.
func benchStore(b *testing.B, fsync bool) (*faultfs.FS, *Store, *storage.ProbTable) {
	b.Helper()
	fs := faultfs.New()
	st, err := Open(fs, "data", Options{Fsync: fsync, CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	s0, err := timeseries.New(nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.DB().CreateRawTable("sensor", "", "", s0); err != nil {
		b.Fatal(err)
	}
	pv := &storage.ProbTable{Name: "pv", Source: "sensor", Omega: view.Omega{Delta: 0.5, N: 2}}
	if err := st.DB().StoreView(pv); err != nil {
		b.Fatal(err)
	}
	return fs, st, pv
}

func benchRows(tt int64, n int) []view.Row {
	rows := make([]view.Row, n)
	for i := range rows {
		rows[i] = view.Row{T: tt, Lambda: i - n/2, Lo: float64(i), Hi: float64(i) + 0.5, Prob: 1 / float64(n)}
	}
	return rows
}

// BenchmarkWALAppend measures committed ingest-step throughput through
// the write-ahead path: one WAL record (raw point + 5 view rows) per
// step, with and without a per-commit durability barrier.
func BenchmarkWALAppend(b *testing.B) {
	for _, fsync := range []bool{false, true} {
		b.Run(fmt.Sprintf("fsync=%v", fsync), func(b *testing.B) {
			_, st, pv := benchStore(b, fsync)
			defer st.Close()
			db := st.DB()
			recBytes := len(encodeStep("sensor", timeseries.Point{T: 1, V: 21}, "pv", benchRows(1, 5)))
			b.SetBytes(int64(recBytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tt := int64(i + 1)
				if err := db.CommitStep("sensor", timeseries.Point{T: tt, V: 21}, pv, benchRows(tt, 5)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryReplay200k measures crash recovery over a WAL holding
// 200k view rows (no checkpoint to shortcut it): each iteration opens a
// fresh copy of the crashed filesystem and replays the full log.
func BenchmarkRecoveryReplay200k(b *testing.B) {
	const totalRows, batch = 200_000, 100
	fs, st, _ := benchStore(b, false)
	defer st.Close()
	pv, err := st.DB().View("pv")
	if err != nil {
		b.Fatal(err)
	}
	for n := 0; n < totalRows/batch; n++ {
		if err := pv.AppendRows(benchRows(int64(n+1), batch)); err != nil {
			b.Fatal(err)
		}
	}
	// One explicit barrier so the whole log survives the crash image.
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		img := fs.CrashImage()
		b.StartTimer()
		st2, err := Open(img, "data", Options{CheckpointBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		pv2, err := st2.DB().View("pv")
		if err != nil {
			b.Fatal(err)
		}
		if n := pv2.NumRows(); n != totalRows {
			b.Fatalf("replayed %d rows, want %d", n, totalRows)
		}
		b.StopTimer()
		st2.Close()
		b.StartTimer()
	}
}

// bulkRows returns a bulk-built view's rows: tuples timestamps with
// perTuple Omega rows each, as CREATE VIEW produces them.
func bulkRows(tuples, perTuple int) []view.Row {
	rows := make([]view.Row, 0, tuples*perTuple)
	for t := 0; t < tuples; t++ {
		rows = append(rows, benchRows(int64(t+1), perTuple)...)
	}
	return rows
}

// benchBulkStore opens a durable store on fs, automatic checkpoints off
// and WAL rotation out of reach, so every iteration does the same work
// and allocs/op is exact.
func benchBulkStore(b *testing.B, fs wal.FS, dir string) *Store {
	b.Helper()
	st, err := Open(fs, dir, Options{CheckpointBytes: -1, WALFileBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStoreView measures committing a finished 300k-row view (3000
// tuples of 100 rows, as CREATE VIEW hands it over) into a durable
// catalog: index build, WAL encoding and appends, catalog insert. Each
// iteration replaces the previous view under the same name.
func BenchmarkStoreView(b *testing.B) {
	// The OS filesystem: the in-memory one would keep every iteration's
	// WAL records resident.
	st := benchBulkStore(b, wal.OS(), b.TempDir())
	rows := bulkRows(3000, 100)
	b.SetBytes(int64(len(rows)) * 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &storage.ProbTable{Name: "pv", Source: "sensor", Omega: view.Omega{Delta: 0.5, N: 99}, Rows: rows}
		if err := st.DB().StoreView(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer() // the closing checkpoint is not part of the measurement
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCheckpointView measures the checkpoint that follows a bulk
// view: capture of its 300k un-flushed rows, the segment write, the
// manifest commit and the WAL trim. The view is stored afresh, untimed,
// before every checkpoint, so each one flushes all of its rows.
func BenchmarkCheckpointView(b *testing.B) {
	// The in-memory filesystem: the OS one allocates a varying amount in
	// its directory reads. A checkpoint trims the WAL and drops the
	// previous segment, so the files stay bounded.
	st := benchBulkStore(b, faultfs.New(), "data")
	rows := bulkRows(3000, 100)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.SetBytes(int64(len(rows)) * 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := &storage.ProbTable{Name: "pv", Source: "sensor", Omega: view.Omega{Delta: 0.5, N: 99}, Rows: rows}
		if err := st.DB().StoreView(p); err != nil {
			b.Fatal(err)
		}
		// Collect here, untimed, twice: that empties the sync.Pools the
		// checkpoint draws on (a pool keeps a victim cache for one cycle),
		// and with automatic collection off no cycle lands inside the
		// timed checkpoint, so every iteration allocates the same and
		// allocs/op is exact.
		runtime.GC()
		runtime.GC()
		b.StartTimer()
		if err := st.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer() // the closing checkpoint is not part of the measurement
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}
