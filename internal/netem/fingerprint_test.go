package netem

import "testing"

func TestFingerprintIgnoresName(t *testing.T) {
	a := Constant("a", 2e6, 600)
	b := Constant("some-other-name", 2e6, 600)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical schedules with different names must share a fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Constant("c", 2e6, 600)
	cases := map[string]*Profile{
		"sample value": {Name: "c", Samples: append(append([]float64{}, base.Samples[:len(base.Samples)-1]...), 2e6+1)},
		"sample count": {Name: "c", Samples: base.Samples[:len(base.Samples)-1]},
	}
	for name, p := range cases {
		if p.Fingerprint() == base.Fingerprint() {
			t.Errorf("changing %s must change the fingerprint", name)
		}
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	p := Cellular(3)
	if p.Fingerprint() != Cellular(3).Fingerprint() {
		t.Fatal("fingerprint must be stable across independently built profiles")
	}
}
