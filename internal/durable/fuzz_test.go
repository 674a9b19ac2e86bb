package durable

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// FuzzWALReplay hands arbitrary bytes to recovery as a complete WAL file:
// frame parsing, record decoding and catalog re-application must never
// panic or over-allocate, and must stop cleanly — either by truncating a
// torn tail (Open succeeds with the clean prefix) or by rejecting the
// first structurally bad record (Open fails with an error). When Open
// succeeds, the recovered store must survive a checkpoint/close cycle and
// a second recovery from the result.
func FuzzWALReplay(f *testing.F) {
	// Seed with a fully valid log exercising every record kind…
	meta := storage.ViewMeta{Name: "pv", Source: "raw", MetricName: "m", Omega: view.Omega{Delta: 0.5, N: 2}}
	valid := logBytes(
		encodeCreateRaw("raw", "t", "r", []timeseries.Point{{T: 1, V: 2}, {T: 2, V: 2.5}}),
		encodeAppendRaw("raw", timeseries.Point{T: 3, V: 3}),
		encodeLegacyStoreView(meta, []view.Row{{T: 1, Lambda: 0, Lo: 0, Hi: 1, Prob: 0.4}}),
		encodeStep("raw", timeseries.Point{T: 4, V: 4}, "pv",
			[]view.Row{{T: 4, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.6}}),
		encodeAppendRows("pv", 2, []view.Row{{T: 4, Lambda: 1, Lo: 2, Hi: 3, Prob: 0.2}}),
		encodeDrop("pv"),
		encodeReset(),
	)
	f.Add(valid)
	// …a view stored as a header plus continuation records: whole, cut at
	// a record boundary and mid-record, and cut then stored again whole —
	// a crashed CREATE VIEW followed by the next session's.
	withViewChunkBytes(f, 128)
	raw := logBytes(encodeCreateRaw("raw", "", "", nil))
	chunked := append([]byte(nil), raw...)
	var cut []byte
	recs := viewRecords(f, meta, seqRows(40))
	for i, rec := range recs {
		framed := wal.Frame(rec)
		if i == len(recs)/2 {
			cut = append([]byte(nil), chunked...)
			f.Add(cut)
			f.Add(append(append([]byte(nil), chunked...), framed[:len(framed)/2]...))
		}
		chunked = append(chunked, framed...)
	}
	f.Add(chunked)
	f.Add(append(append([]byte(nil), cut...), chunked[len(raw):]...))
	// …and with degenerate shapes the mutators grow from.
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])                              // torn tail
	f.Add(logBytes(rawRecord(recReset, 0xff)))               // trailing junk in a record
	f.Add(logBytes(rawRecord(0x7f)))                         // unknown kind
	f.Add(logBytes(encodeDrop("ghost")))                     // drop of a missing table
	f.Add(logBytes(rawRecord(recViewRows, 0)))               // continuation without a header
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad)) // valid log + garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := faultfs.New()
		fs.MkdirAll("data")
		fs.MkdirAll("data/wal")
		fs.WriteExisting("data/wal/"+wal.FileName(1), data)
		st, err := Open(fs, "data", Options{CheckpointBytes: -1})
		if err != nil {
			return // rejected cleanly at the first bad record
		}
		// Whatever prefix was accepted must be a coherent catalog: it can
		// be checkpointed into segments and recovered again.
		names := st.Tables()
		if err := st.Close(); err != nil {
			t.Fatalf("close after replay: %v", err)
		}
		st2, err := Open(fs, "data", Options{CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("reopen after checkpoint: %v", err)
		}
		defer st2.Close()
		got := st2.Tables()
		if len(got) != len(names) {
			t.Fatalf("tables after reopen = %v, want %v", got, names)
		}
		for i := range got {
			if got[i] != names[i] {
				t.Fatalf("tables after reopen = %v, want %v", got, names)
			}
		}
	})
}
