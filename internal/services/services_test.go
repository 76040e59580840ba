package services

import (
	"math"
	"testing"

	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/qoe"
)

// TestTable1Constants pins the service definitions to the paper's
// published Table 1 parameters.
func TestTable1Constants(t *testing.T) {
	type row struct {
		segDur     float64
		sepAudio   bool
		maxTCP     int
		persistent bool
		startupSec float64
		startupMbs float64
		pause      float64
		resume     float64
	}
	want := map[string]row{
		"H1": {4, false, 1, true, 8, 0.63, 95, 85},
		"H2": {2, false, 1, false, 8, 1.33, 90, 84},
		"H3": {9, false, 1, false, 9, 1.05, 40, 30},
		"H4": {9, false, 1, true, 9, 0.47, 155, 135},
		"H5": {6, false, 1, false, 12, 1.85, 30, 20},
		"H6": {10, false, 1, true, 10, 0.88, 80, 70},
		"D1": {5, true, 6, true, 15, 0.41, 182, 178},
		"D2": {5, true, 2, true, 5, 0.30, 30, 25},
		"D3": {2, true, 3, true, 8, 0.40, 120, 90},
		"D4": {6, true, 3, true, 6, 0.67, 34, 15},
		"S1": {2, true, 2, true, 16, 1.35, 180, 175},
		"S2": {3, true, 2, true, 6, 0.76, 30, 4},
	}
	for _, svc := range All() {
		w, ok := want[svc.Name]
		if !ok {
			t.Fatalf("unexpected service %q", svc.Name)
		}
		if svc.Media.SegmentDuration != w.segDur {
			t.Errorf("%s segment duration %v, want %v", svc.Name, svc.Media.SegmentDuration, w.segDur)
		}
		if svc.Media.SeparateAudio != w.sepAudio {
			t.Errorf("%s separate audio %v", svc.Name, svc.Media.SeparateAudio)
		}
		if svc.Player.MaxConnections != w.maxTCP {
			t.Errorf("%s max TCP %d, want %d", svc.Name, svc.Player.MaxConnections, w.maxTCP)
		}
		if svc.Player.Persistent != w.persistent {
			t.Errorf("%s persistent %v", svc.Name, svc.Player.Persistent)
		}
		if svc.Player.StartupBufferSec != w.startupSec {
			t.Errorf("%s startup buffer %v, want %v", svc.Name, svc.Player.StartupBufferSec, w.startupSec)
		}
		startup := svc.Media.TargetBitrates[svc.Player.StartupTrack]
		if svc.Media.DeclaredPolicy == media.DeclarePeak && svc.Media.Encoding == media.VBR {
			startup *= svc.Media.VBRSpread
		}
		if math.Abs(startup-w.startupMbs*1e6) > 1e4 {
			t.Errorf("%s startup bitrate %.2f Mbps, want %.2f", svc.Name, startup/1e6, w.startupMbs)
		}
		if svc.Player.PauseThresholdSec != w.pause || svc.Player.ResumeThresholdSec != w.resume {
			t.Errorf("%s thresholds %v/%v, want %v/%v", svc.Name,
				svc.Player.PauseThresholdSec, svc.Player.ResumeThresholdSec, w.pause, w.resume)
		}
	}
}

// TestLadderGuidelines checks the §3.1 server-side observations: tops
// between 2 and 5.5 Mbit/s, H2/H5/S1 bottoms above 500 kbit/s, all other
// bottoms at or below it, adjacent spacing within Apple's 1.5–2× guide.
func TestLadderGuidelines(t *testing.T) {
	highBottom := map[string]bool{"H2": true, "H5": true, "S1": true}
	for _, svc := range All() {
		org, err := svc.Origin()
		if err != nil {
			t.Fatal(err)
		}
		var declared []float64
		for _, r := range org.Pres.Video {
			declared = append(declared, r.DeclaredBitrate)
		}
		top := declared[len(declared)-1]
		if top < 2e6 || top > 5.5e6 {
			t.Errorf("%s top track %.2f Mbps outside 2–5.5", svc.Name, top/1e6)
		}
		if highBottom[svc.Name] != (declared[0] > 500e3) {
			t.Errorf("%s bottom track %.2f Mbps, highBottom=%v", svc.Name, declared[0]/1e6, highBottom[svc.Name])
		}
		for i := 1; i < len(declared); i++ {
			ratio := declared[i] / declared[i-1]
			if ratio < 1.3 || ratio > 2.2 {
				t.Errorf("%s rung %d spacing %.2f× outside guideline", svc.Name, i, ratio)
			}
		}
	}
}

// TestThreeCBRServices: §3.1 "we find that 3 services use CBR".
func TestThreeCBRServices(t *testing.T) {
	n := 0
	for _, svc := range All() {
		if svc.Media.Encoding == media.CBR {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("%d CBR services, want 3", n)
	}
}

// TestProtocolSplit: 6 HLS, 4 DASH, 2 SmoothStreaming.
func TestProtocolSplit(t *testing.T) {
	counts := map[manifest.Protocol]int{}
	for _, svc := range All() {
		counts[svc.Build.Protocol]++
	}
	if counts[manifest.HLS] != 6 || counts[manifest.DASH] != 4 || counts[manifest.Smooth] != 2 {
		t.Fatalf("protocol split %v", counts)
	}
}

// TestHLSNoSeparateAudio: §3.1 "all studied services that use HLS do not
// have separate audio tracks, while all services that use DASH or
// SmoothStreaming encode separate audio tracks".
func TestHLSNoSeparateAudio(t *testing.T) {
	for _, svc := range All() {
		wantAudio := svc.Build.Protocol != manifest.HLS
		if svc.Media.SeparateAudio != wantAudio {
			t.Errorf("%s separate audio %v", svc.Name, svc.Media.SeparateAudio)
		}
	}
}

// TestDeterministicRuns: the same service over the same profile produces
// byte-identical QoE.
func TestDeterministicRuns(t *testing.T) {
	p := netem.Cellular(4)
	for _, name := range []string{"H4", "D1", "D3", "S2"} {
		svc := ByName(name)
		a, err := svc.Run(p, 300, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := svc.Run(p, 300, nil)
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := qoe.FromResult(a), qoe.FromResult(b)
		if ra.AvgBitrate != rb.AvgBitrate || ra.StallSec != rb.StallSec ||
			ra.DataUsageBytes != rb.DataUsageBytes || ra.Switches != rb.Switches {
			t.Errorf("%s runs diverged: %+v vs %+v", name, ra, rb)
		}
	}
}

// TestIssuesDeclared: every service that Table 2 names carries its issue
// annotations, and clean services carry none that Table 2 omits.
func TestIssuesDeclared(t *testing.T) {
	if len(ByName("D3").Issues) != 0 {
		t.Errorf("D3 should be issue-free in Table 2, has %v", ByName("D3").Issues)
	}
	for _, name := range []string{"H1", "H2", "H3", "H4", "H5", "H6", "D1", "D2", "D4", "S1", "S2"} {
		if len(ByName(name).Issues) == 0 {
			t.Errorf("%s should declare at least one Table 2 issue", name)
		}
	}
}

// TestShapesAcrossTraceSeeds reruns the headline behavioural contrasts on
// three alternative trace draws: the reproduced shapes must not be
// artefacts of the canonical seed.
func TestShapesAcrossTraceSeeds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ps := netem.CellularSetSeed(seed)

		// H5's high bottom track stalls on the lowest profile; D2's low
		// bottom track does not (§3.1).
		h5, err := ByName("H5").Run(ps[0], 600, nil)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := ByName("D2").Run(ps[0], 600, nil)
		if err != nil {
			t.Fatal(err)
		}
		if h5.Summary.StallSec < 5 {
			t.Errorf("seed %d: H5 stalled only %.1f s on the lowest profile", seed, h5.Summary.StallSec)
		}
		if d2.Summary.StallSec > 5 {
			t.Errorf("seed %d: D2 stalled %.1f s on the lowest profile", seed, d2.Summary.StallSec)
		}

		// S2's 4 s resume threshold stalls more than a 25 s threshold
		// (§3.3.2, Figure 7) — summed over three mid profiles.
		var low, high float64
		for pi := 2; pi <= 4; pi++ {
			s2 := ByName("S2")
			a, err := s2.Run(ps[pi], 600, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s2.Run(ps[pi], 600, func(c *player.Config) { c.ResumeThresholdSec = 25 })
			if err != nil {
				t.Fatal(err)
			}
			low += a.Summary.StallSec
			high += b.Summary.StallSec
		}
		if low <= high {
			t.Errorf("seed %d: resume=4s stalled %.1f s vs resume=25s %.1f s", seed, low, high)
		}
	}
}
