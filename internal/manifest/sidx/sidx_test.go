package sidx

import (
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	b := &Box{
		Version:                  1,
		ReferenceID:              1,
		Timescale:                1000,
		EarliestPresentationTime: 12345,
		FirstOffset:              0,
		References: []Reference{
			{ReferencedSize: 1000, SubsegmentDuration: 4000, StartsWithSAP: true, SAPType: 1},
			{ReferencedSize: 2000, SubsegmentDuration: 3999, StartsWithSAP: true, SAPType: 1},
		},
	}
	got, err := Decode(Encode(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Timescale != b.Timescale || got.EarliestPresentationTime != b.EarliestPresentationTime {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.References) != 2 {
		t.Fatalf("refs = %d", len(got.References))
	}
	for i := range b.References {
		if got.References[i] != b.References[i] {
			t.Fatalf("ref %d: %+v vs %+v", i, got.References[i], b.References[i])
		}
	}
}

func TestSegmentDurations(t *testing.T) {
	b := FromSegments([]int64{100, 200}, []float64{4, 2.5}, 1000)
	if d0, d1 := b.References[0].SubsegmentDuration, b.References[1].SubsegmentDuration; d0 != 4000 || d1 != 2500 {
		t.Fatalf("durations %d, %d at timescale %d", d0, d1, b.Timescale)
	}
}

func TestDecodeVersion0(t *testing.T) {
	// Hand-build a version 0 box: 32-bit times.
	raw := []byte{
		0, 0, 0, 44, 's', 'i', 'd', 'x',
		0, 0, 0, 0, // version 0, flags
		0, 0, 0, 1, // reference id
		0, 0, 3, 0xe8, // timescale 1000
		0, 0, 0, 10, // earliest presentation time
		0, 0, 0, 0, // first offset
		0, 0, 0, 1, // reserved + count 1
		0, 0, 1, 0, // size 256
		0, 0, 0x0f, 0xa0, // duration 4000
		0x90, 0, 0, 0, // SAP
	}
	b, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != 0 || b.EarliestPresentationTime != 10 || b.References[0].ReferencedSize != 256 {
		t.Fatalf("decoded %+v", b)
	}
	if !b.References[0].StartsWithSAP || b.References[0].SAPType != 1 {
		t.Fatalf("SAP decoded wrong: %+v", b.References[0])
	}
}

func TestDecodeErrors(t *testing.T) {
	good := Encode(FromSegments([]int64{100}, []float64{4}, 1000))
	cases := [][]byte{
		nil,
		good[:8],
		append([]byte{}, good[:4]...),
	}
	// Wrong box type.
	bad := append([]byte{}, good...)
	copy(bad[4:8], "free")
	cases = append(cases, bad)
	// Truncated references.
	trunc := append([]byte{}, good[:len(good)-4]...)
	cases = append(cases, trunc)
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(sizes []uint32, ts uint16) bool {
		if len(sizes) == 0 || len(sizes) > 500 {
			return true
		}
		timescale := uint32(ts)%10000 + 1
		b := &Box{Version: 1, ReferenceID: 1, Timescale: timescale}
		for _, sz := range sizes {
			b.References = append(b.References, Reference{
				ReferencedSize:     sz & 0x7fffffff,
				SubsegmentDuration: sz % 100000,
				StartsWithSAP:      sz%2 == 0,
				SAPType:            uint8(sz % 8),
			})
		}
		got, err := Decode(Encode(b))
		if err != nil || len(got.References) != len(b.References) {
			return false
		}
		for i := range b.References {
			if got.References[i] != b.References[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
