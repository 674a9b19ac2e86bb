package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDirBytesCountsRegularFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "seg"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"MANIFEST": 3, "seg/a.seg": 10, "seg/b.seg.tmp": 5} {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dirBytes(dir)
	if err != nil || got != 18 {
		t.Fatalf("dirBytes = %d, %v; want 18", got, err)
	}
}
