package player

// Summary is the streaming digest of one session: the QoE quantities
// of the paper's §2.2, accumulated online as the session plays, the
// same way whether or not a full Result is recorded beside it (a full
// Result carries a copy, which qoe.FromResult reads). It is a few
// fixed-size fields plus one ladder-length slice — the entire
// per-session footprint of the population hot path.
type Summary struct {
	// StartupDelay is seconds from arrival to first frame (-1 = never).
	StartupDelay float64
	// StallCount and StallSec summarise rebuffering after startup.
	StallCount int
	StallSec   float64
	// PlayedSec is total wall-clock playback time.
	PlayedSec float64
	// TimeOnTrack maps ladder index → displayed media seconds.
	TimeOnTrack []float64
	// Switches and NonConsecutive count displayed track changes.
	Switches       int
	NonConsecutive int
	// WeightedBitrateSec and PlayedMediaSec carry the displayed-bitrate
	// fold (Σ declared·duration and Σ duration); the mean displayed
	// bitrate is their ratio.
	WeightedBitrateSec float64
	PlayedMediaSec     float64
	// TotalBytes is all media+document bytes downloaded; WastedBytes the
	// bytes of downloads that never displayed (discarded by replacement,
	// or replacements of positions already played).
	TotalBytes  float64
	WastedBytes float64
}

// AvgBitrate returns the playtime-weighted mean declared bitrate of
// displayed segments in bits/s.
func (s *Summary) AvgBitrate() float64 {
	if s.PlayedMediaSec > 0 {
		return s.WeightedBitrateSec / s.PlayedMediaSec
	}
	return 0
}

// Summary returns the session's online digest. It is complete once the
// session has finished; lean sessions (SetLean) have no other output.
func (s *Session) Summary() *Summary { return &s.sum }
