// Package sidx encodes and decodes the ISO-BMFF Segment Index box
// (ISO/IEC 14496-12 §8.16.3). DASH services D2–D4 publish per-segment
// byte ranges and durations through this box rather than in the MPD; the
// paper's traffic analyzer parses it to recover segment sizes even when
// the MPD itself is encrypted (D3, §2.3 footnote). §4.2 argues the sizes
// it reveals should feed the adaptation logic.
package sidx

import (
	"encoding/binary"
	"fmt"
)

// Reference is one entry of the segment index.
type Reference struct {
	// ReferencedSize is the segment size in bytes (31-bit field).
	ReferencedSize uint32
	// SubsegmentDuration is the segment duration in timescale units.
	SubsegmentDuration uint32
	// StartsWithSAP marks the segment as starting with a stream access
	// point (always true for our per-segment-addressable content).
	StartsWithSAP bool
	// SAPType is the SAP type (1 for closed-GOP IDR starts).
	SAPType uint8
}

// Box is a parsed Segment Index box.
type Box struct {
	// Version is 0 (32-bit times) or 1 (64-bit times).
	Version uint8
	// ReferenceID is the stream ID the index describes.
	ReferenceID uint32
	// Timescale is ticks per second for the duration fields.
	Timescale uint32
	// EarliestPresentationTime is the media time of the first segment.
	EarliestPresentationTime uint64
	// FirstOffset is the distance from the end of the box to the first
	// referenced byte.
	FirstOffset uint64
	// References lists the indexed segments in order.
	References []Reference
}

// Encode serialises the box. Version 1 is always written.
func Encode(b *Box) []byte {
	size := 12 + 4 + 4 + 16 + 4 + 12*len(b.References)
	out := make([]byte, 0, size)
	var tmp [8]byte

	be32 := func(v uint32) {
		binary.BigEndian.PutUint32(tmp[:4], v)
		out = append(out, tmp[:4]...)
	}
	be64 := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:8], v)
		out = append(out, tmp[:8]...)
	}

	be32(uint32(size))
	out = append(out, "sidx"...)
	be32(1 << 24) // version 1, flags 0
	be32(b.ReferenceID)
	be32(b.Timescale)
	be64(b.EarliestPresentationTime)
	be64(b.FirstOffset)
	be32(uint32(len(b.References)) & 0xffff) // reserved(16)=0 + count(16)
	for _, r := range b.References {
		be32(r.ReferencedSize & 0x7fffffff) // reference_type 0 = media
		be32(r.SubsegmentDuration)
		var sap uint32
		if r.StartsWithSAP {
			sap = 1 << 31
		}
		sap |= uint32(r.SAPType&0x7) << 28
		be32(sap)
	}
	return out
}

// Decode parses a Segment Index box from data (which must begin at the
// box header). It accepts versions 0 and 1.
func Decode(data []byte) (*Box, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("sidx: short box header (%d bytes)", len(data))
	}
	size := binary.BigEndian.Uint32(data[0:4])
	if string(data[4:8]) != "sidx" {
		return nil, fmt.Errorf("sidx: box type %q, want \"sidx\"", data[4:8])
	}
	if int(size) > len(data) {
		return nil, fmt.Errorf("sidx: declared size %d exceeds buffer %d", size, len(data))
	}
	data = data[:size]
	b := &Box{Version: data[8]}
	if b.Version > 1 {
		return nil, fmt.Errorf("sidx: unsupported version %d", b.Version)
	}
	off := 12
	need := func(n int) error {
		if off+n > len(data) {
			return fmt.Errorf("sidx: truncated box at offset %d", off)
		}
		return nil
	}
	if err := need(8); err != nil {
		return nil, err
	}
	b.ReferenceID = binary.BigEndian.Uint32(data[off:])
	b.Timescale = binary.BigEndian.Uint32(data[off+4:])
	off += 8
	if b.Version == 0 {
		if err := need(8); err != nil {
			return nil, err
		}
		b.EarliestPresentationTime = uint64(binary.BigEndian.Uint32(data[off:]))
		b.FirstOffset = uint64(binary.BigEndian.Uint32(data[off+4:]))
		off += 8
	} else {
		if err := need(16); err != nil {
			return nil, err
		}
		b.EarliestPresentationTime = binary.BigEndian.Uint64(data[off:])
		b.FirstOffset = binary.BigEndian.Uint64(data[off+8:])
		off += 16
	}
	if err := need(4); err != nil {
		return nil, err
	}
	count := int(binary.BigEndian.Uint16(data[off+2:]))
	off += 4
	if err := need(12 * count); err != nil {
		return nil, err
	}
	for i := 0; i < count; i++ {
		sz := binary.BigEndian.Uint32(data[off:])
		if sz>>31 != 0 {
			return nil, fmt.Errorf("sidx: reference %d indexes another sidx (unsupported)", i)
		}
		dur := binary.BigEndian.Uint32(data[off+4:])
		sap := binary.BigEndian.Uint32(data[off+8:])
		b.References = append(b.References, Reference{
			ReferencedSize:     sz & 0x7fffffff,
			SubsegmentDuration: dur,
			StartsWithSAP:      sap>>31 == 1,
			SAPType:            uint8(sap >> 28 & 0x7),
		})
		off += 12
	}
	return b, nil
}

// FromSegments builds a Box for segments with the given sizes (bytes) and
// durations (seconds) using the given timescale.
func FromSegments(sizes []int64, durations []float64, timescale uint32) *Box {
	b := &Box{Version: 1, ReferenceID: 1, Timescale: timescale}
	for i := range sizes {
		b.References = append(b.References, Reference{
			ReferencedSize:     uint32(sizes[i]),
			SubsegmentDuration: uint32(durations[i]*float64(timescale) + 0.5),
			StartsWithSAP:      true,
			SAPType:            1,
		})
	}
	return b
}
