package wal_test

import (
	"bytes"
	"testing"

	"repro/internal/wal"
)

// FuzzReadRecords feeds arbitrary bytes to the record scanner: it must
// never panic, must stop cleanly at the first bad frame, and the valid
// prefix it reports must re-scan to the same records.
func FuzzReadRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	var seed []byte
	for _, payload := range []string{"hello", "world"} {
		seed = append(seed, wal.Frame(append(make([]byte, wal.HeaderBytes), payload...))...)
	}
	f.Add(seed)
	f.Add(append(append([]byte{}, seed...), 0x05, 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		var records [][]byte
		n, clean, err := wal.ReadRecords(bytes.NewReader(data), func(p []byte) error {
			records = append(records, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("ReadRecords returned I/O error on in-memory data: %v", err)
		}
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", n, len(data))
		}
		if clean && n != int64(len(data)) {
			t.Fatalf("clean stop at %d with %d bytes", n, len(data))
		}
		// The reported prefix must re-scan cleanly to the same records.
		var again [][]byte
		n2, clean2, err := wal.ReadRecords(bytes.NewReader(data[:n]), func(p []byte) error {
			again = append(again, append([]byte(nil), p...))
			return nil
		})
		if err != nil || !clean2 || n2 != n {
			t.Fatalf("re-scan of valid prefix: n=%d clean=%v err=%v", n2, clean2, err)
		}
		if len(again) != len(records) {
			t.Fatalf("re-scan yielded %d records, first scan %d", len(again), len(records))
		}
		for i := range again {
			if !bytes.Equal(again[i], records[i]) {
				t.Fatalf("record %d differs between scans", i)
			}
		}
	})
}
