package player

import "testing"

// TestEventDetail pins the text of each event kind: Detail formats the
// operands an Event keeps with the strings the session once formatted
// when it recorded the event.
func TestEventDetail(t *testing.T) {
	for _, tc := range []struct {
		e    Event
		want string
	}{
		{Event{Kind: "startup", Num: [3]float64{3.456}}, "playback started, delay 3.46s"},
		{Event{Kind: "resume", Num: [3]float64{12.004}}, "stall over after 12.00s"},
		{Event{Kind: "stall", Num: [3]float64{187.25}}, "buffer empty at playhead 187.2s"},
		{Event{Kind: "resume-dl", Buffer: "audio", Num: [3]float64{29.96, 30}}, "audio buffer 30.0s ≤ resume threshold 30s"},
		{Event{Kind: "pause-dl", Buffer: "video", Num: [3]float64{95.04, 95}}, "video buffer 95.0s ≥ pause threshold 95s"},
		{Event{Kind: "sr-drop", Num: [3]float64{12, 143}}, "dropped 12 buffered segments from index 143"},
		{Event{Kind: "reject", Num: [3]float64{1027}}, "origin rejected segment request #1027"},
		{Event{Kind: "sr-replace", Num: [3]float64{118, 1, 4}}, "segment 118: track 1 → 4"},
		{Event{Kind: "switch", Num: [3]float64{299, 3, 2}}, "segment 299 downloaded at track 3 (prev 2)"},
	} {
		if got := tc.e.Detail(); got != tc.want {
			t.Errorf("%s: Detail() = %q, want %q", tc.e.Kind, got, tc.want)
		}
	}
}
