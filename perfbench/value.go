package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Live values are self-describing so every GET can be checked on its
// own:
//
//	[0:8)    key, little endian
//	[8:16)   version, little endian (0 = the preloaded value)
//	[16:n-4) filler derived from (key, version)
//	[n-4:n)  CRC-32C of bytes [0:n-4)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fillValue writes the value of key at version into b (len(b) >= 20).
func fillValue(b []byte, key int64, version uint32) {
	binary.LittleEndian.PutUint64(b[0:], uint64(key))
	binary.LittleEndian.PutUint64(b[8:], uint64(version))
	x := splitmix(uint64(key)<<32 ^ uint64(version))
	body := b[16 : len(b)-4]
	for len(body) >= 8 {
		binary.LittleEndian.PutUint64(body, x.next())
		body = body[8:]
	}
	if len(body) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x.next())
		copy(body, w[:])
	}
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
}

var (
	errValueSize     = errors.New("value has the wrong size")
	errValueChecksum = errors.New("value checksum mismatch")
)

// checkValue verifies that b is an intact value of key with the given
// size and returns its version.
func checkValue(b []byte, key int64, size int) (uint32, error) {
	if len(b) != size {
		return 0, fmt.Errorf("key %d: %w (%d bytes, want %d)", key, errValueSize, len(b), size)
	}
	n := len(b) - 4
	if crc32.Checksum(b[:n], castagnoli) != binary.LittleEndian.Uint32(b[n:]) {
		return 0, fmt.Errorf("key %d: %w", key, errValueChecksum)
	}
	if got := int64(binary.LittleEndian.Uint64(b)); got != key {
		return 0, fmt.Errorf("key %d: value belongs to key %d", key, got)
	}
	return uint32(binary.LittleEndian.Uint64(b[8:])), nil
}
