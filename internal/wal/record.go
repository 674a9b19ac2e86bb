package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// Record framing: every record is stored as
//
//	length  uint32 (little-endian, payload bytes)
//	crc     uint32 (IEEE CRC32 of the payload)
//	payload [length]byte
//
// The frame is self-delimiting and self-verifying, so the reader can walk
// a log file record by record and stop cleanly at the first torn or
// corrupt frame — which is exactly what a crash mid-append leaves behind.

const (
	// HeaderBytes is the size of a record's frame header. Writers reserve
	// it at the front of every record buffer and Log.Append fills it in
	// place, so a record reaches the file in one Write with no staging
	// copy.
	HeaderBytes = 8
	// MaxRecordBytes bounds a single record's payload; a length field
	// above it is treated as corruption rather than an allocation request.
	// Writers keep every record far below it: ingest batches encode to a
	// few dozen bytes per Omega row, and a stored view is split into
	// bounded continuation records.
	MaxRecordBytes = 64 << 20
)

// Frame writes the frame header of rec into rec[:HeaderBytes], describing
// the payload rec[HeaderBytes:], and returns rec. It never fails;
// oversized payloads are the caller's to reject (Log.Append does).
func Frame(rec []byte) []byte {
	payload := rec[HeaderBytes:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	return rec
}

// ReadRecords scans framed records from r, invoking fn with each verified
// payload. The payload slice is reused between calls; fn must not retain
// it.
//
// It returns the byte offset just past the last valid record, and whether
// the stream ended cleanly on a record boundary. A truncated header, a
// short payload, an oversize length or a CRC mismatch all stop the scan
// with clean=false and a nil error — corruption is an expected crash
// artifact, not a failure. Only an fn error or a non-EOF read error is
// returned as err.
func ReadRecords(r io.Reader, fn func(payload []byte) error) (n int64, clean bool, err error) {
	var hdr [HeaderBytes]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return n, true, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return n, false, nil
			}
			return n, false, err
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecordBytes {
			return n, false, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return n, false, nil
			}
			return n, false, err
		}
		if crc32.ChecksumIEEE(payload) != want {
			return n, false, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return n, false, err
			}
		}
		n += HeaderBytes + int64(length)
	}
}
