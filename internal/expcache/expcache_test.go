package expcache

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/modify"
	"repro/internal/netem"
	"repro/internal/player"
	"repro/internal/services"
	"repro/internal/simnet"
)

// ---- fingerprint ----

func mustKey(t *testing.T, vs ...any) Key {
	t.Helper()
	k, err := Fingerprint(vs...)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestFingerprintDeterministic(t *testing.T) {
	type inner struct{ A, B float64 }
	type outer struct {
		Name string
		N    int
		In   inner
		List []string
		Ptr  *inner
	}
	v := outer{"x", 3, inner{1.5, -0.25}, []string{"a", "b"}, &inner{2, 4}}
	k1 := mustKey(t, v)
	// A structurally equal but separately constructed value must hash
	// identically: keys are content, not addresses.
	w := outer{"x", 3, inner{1.5, -0.25}, []string{"a", "b"}, &inner{2, 4}}
	if k2 := mustKey(t, w); k2 != k1 {
		t.Error("equal values produced different fingerprints")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	type cfg struct {
		Rate float64
		Name string
		Tags []int
	}
	base := cfg{1.0, "a", []int{1, 2}}
	k := mustKey(t, base)
	for name, v := range map[string]cfg{
		"float":    {1.0000001, "a", []int{1, 2}},
		"string":   {1.0, "b", []int{1, 2}},
		"elem":     {1.0, "a", []int{1, 3}},
		"len":      {1.0, "a", []int{1, 2, 2}},
		"nilslice": {1.0, "a", nil},
	} {
		if mustKey(t, v) == k {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
	// Nil and empty slices are distinct contents.
	if mustKey(t, []int(nil)) == mustKey(t, []int{}) {
		t.Error("nil and empty slice fingerprint identically")
	}
	// Same field values under a different named type must not collide:
	// the type identity is part of the content.
	type cfg2 struct {
		Rate float64
		Name string
		Tags []int
	}
	if mustKey(t, cfg2{1.0, "a", []int{1, 2}}) == k {
		t.Error("distinct struct types with equal fields collide")
	}
}

func TestFingerprintMapOrderIndependent(t *testing.T) {
	// Build the same map contents twice by different insertion orders and
	// hash each several times: Go randomizes iteration, so any order
	// dependence would show up as unequal keys.
	m1 := map[string]int{}
	m2 := map[string]int{}
	for i := 0; i < 64; i++ {
		m1[fmt.Sprint(i)] = i
	}
	for i := 63; i >= 0; i-- {
		m2[fmt.Sprint(i)] = i
	}
	k := mustKey(t, m1)
	for i := 0; i < 8; i++ {
		if mustKey(t, m1) != k || mustKey(t, m2) != k {
			t.Fatal("map fingerprint depends on iteration or insertion order")
		}
	}
}

func TestFingerprintCycles(t *testing.T) {
	type node struct {
		V    int
		Next *node
	}
	mk := func(vs ...int) *node {
		head := &node{V: vs[0]}
		cur := head
		for _, v := range vs[1:] {
			cur.Next = &node{V: v}
			cur = cur.Next
		}
		cur.Next = head // close the cycle
		return head
	}
	k1 := mustKey(t, mk(1, 2))
	if k1 != mustKey(t, mk(1, 2)) {
		t.Error("identical cycles fingerprint differently")
	}
	if k1 == mustKey(t, mk(1, 2, 2)) {
		t.Error("different cycles collide")
	}
}

func TestFingerprintUncacheable(t *testing.T) {
	type withGate struct {
		N    int
		Gate func() bool
	}
	if _, err := Fingerprint(withGate{1, func() bool { return true }}); !errors.Is(err, ErrUncacheable) {
		t.Errorf("non-nil func: got %v, want ErrUncacheable", err)
	}
	// A nil func is plain absent content, not an error.
	if _, err := Fingerprint(withGate{1, nil}); err != nil {
		t.Errorf("nil func: %v", err)
	}
}

// TestFingerprintGoldenKeys pins the hasher's byte stream: the keys below
// were recorded before the hasher buffered its writes, so any change to
// what is fed to SHA-256 (not merely how it is batched) shows up here as
// a moved key — and would silently orphan every memoized session. The
// session key was re-recorded when player.Config lost its user-seek field:
// the fingerprint walks every struct field, so one field fewer is a
// different byte stream for every config; the three hasher rows did not
// move. It was re-recorded again when profiles became 1 s samples only:
// Profile.Fingerprint no longer mixes a sample duration.
func TestFingerprintGoldenKeys(t *testing.T) {
	type node struct {
		V    int
		Next *node
	}
	type pair struct{ A, B *node }
	shared := &node{V: 7}
	cyc := &node{V: 1, Next: &node{V: 2}}
	cyc.Next.Next = cyc

	svc := services.ByName("H1")
	org, err := New().Origin(svc)
	if err != nil {
		t.Fatal(err)
	}
	session, err := sessionKey(services.Resolve(svc.Player, 60, nil), org, testProfile(), simnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		got  Key
		want string
	}{
		// Longer than the hasher's inline buffer, so it takes the
		// flush-then-write-through path, with buffered values either side.
		{"long string", mustKey(t, 1, strings.Repeat("0123456789abcdef", 40), 2.5), "74f74fa75df5e0d139ba587ad5b79c25ee3c699f18f177bc4d72d7fd7ab9e720"},
		{"nested map", mustKey(t, map[string]map[int][]string{
			"a": {1: {"x", "y"}, 2: nil},
			"b": {},
			"c": {3: {strings.Repeat("z", 600)}},
		}, "tail"), "71acb78a680ef4c4251e776c6d81440f32502d60086b3a5119daffb98739e59e"},
		{"shared pointer and cycle", mustKey(t, pair{shared, shared}, cyc), "2dcf04c47560247d94a2909bfcf99beabeac7fa17c0859d03d4860972c7b1899"},
		{"session key", session, "3a6722ab52296edb290d7cb309daa00703a720a977276d39cdd031871597666f"},
	} {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

// ---- memo ----

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestFingerprintPooledHashers: hashers are pooled, so a key must not
// depend on what the hasher it drew was last used for — in particular not
// on a walk that failed midway with values buffered and pointers visited
// — concurrent callers must not share one, and a key over values that
// are already on the heap must cost no allocation at all.
func TestFingerprintPooledHashers(t *testing.T) {
	type spec struct {
		Seed int64
		Size int
		Cold bool
		At   float64
		Name string
	}
	type poisoned struct {
		P *spec
		S string
		F func()
	}
	want := make([]Key, 64)
	for i := range want {
		want[i] = mustKey(t, "tag", &spec{Seed: int64(i), Size: 24, Name: "n"})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				if _, err := Fingerprint(poisoned{&spec{Seed: 1}, strings.Repeat("x", 700), func() {}}); !errors.Is(err, ErrUncacheable) {
					t.Errorf("fingerprint of a func: error %v, want ErrUncacheable", err)
				}
				got, err := Fingerprint("tag", &spec{Seed: int64(i), Size: 24, Name: "n"})
				if err != nil || got != want[i] {
					t.Errorf("key %d after a failed walk: %x (%v), want %x", i, got, err, want[i])
				}
			}
		}()
	}
	wg.Wait()

	if raceDetector() {
		return // sync.Pool drops a share of its Puts on purpose: hashers are re-allocated now and then
	}
	s := &spec{Size: 24, Name: "n"}
	allocs := testing.AllocsPerRun(100, func() {
		s.Seed++
		if _, err := Fingerprint("tag", s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a small key over a pointer allocates %.0f times, want 0", allocs)
	}
}

// TestMemoErrorCachedForever pins the deliberate contract: a failed
// build is cached like a value and never retried (every build in this
// repository is deterministic, so the failure is permanent).
func TestMemoErrorCachedForever(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int32
	boom := errors.New("boom")
	build := func() (int, error) {
		calls.Add(1)
		return 0, boom
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Get("k", build); err != boom {
			t.Fatalf("call %d: got %v, want the original build error", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("failed build ran %d times, want exactly 1 (errors are cached)", n)
	}
	if b, _, _ := m.Stats(); b != 1 {
		t.Errorf("builds counter = %d, want 1", b)
	}
}

// TestMemoConcurrent hammers the memo from many goroutines: every key's
// builder must run exactly once, unrelated keys must not serialise each
// other, and all callers must observe the same value. Run under -race
// this is the cache-safety proof (migrated from the old keyedOnce test).
func TestMemoConcurrent(t *testing.T) {
	const keys = 12
	const callers = 16
	var m Memo[int, int]
	var builds [keys]atomic.Int32
	var wg sync.WaitGroup
	errc := make(chan error, keys*callers)
	for k := 0; k < keys; k++ {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, err := m.Get(k, func() (int, error) {
					builds[k].Add(1)
					return k * k, nil
				})
				if err != nil {
					errc <- err
					return
				}
				if v != k*k {
					errc <- fmt.Errorf("key %d: got %d", k, v)
				}
			}(k)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for k := 0; k < keys; k++ {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times", k, n)
		}
	}
	b, h, w := m.Stats()
	if b != keys {
		t.Errorf("builds = %d, want %d", b, keys)
	}
	if b+h+w != keys*callers {
		t.Errorf("builds+hits+waits = %d, want %d calls accounted for", b+h+w, keys*callers)
	}
}

// ---- session cache ----

func testProfile() *netem.Profile { return netem.Constant("cachetest", 6e6, 120) }

// TestRunNetCounters: the same session requested twice computes once;
// counters record one miss then one memory hit, and both callers get the
// same shared result pointer.
func TestRunNetCounters(t *testing.T) {
	c := New()
	svc := services.ByName("H1")
	org, err := c.Origin(svc)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.Run(svc.Player, org, testProfile(), 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Run(svc.Player, org, testProfile(), 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second identical run did not return the shared cached result")
	}
	s := c.Snapshot()
	if s.Misses != 1 || s.MemHits != 1 || s.Bypass != 0 {
		t.Errorf("counters = %+v, want 1 miss, 1 memory hit", s)
	}
	// A different duration is different content: a new miss.
	if _, err := c.Run(svc.Player, org, testProfile(), 30, nil); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.Misses != 2 {
		t.Errorf("distinct session did not miss: %+v", s)
	}
}

// TestRunNetConcurrentSingleflight: many concurrent requests for one
// session produce exactly one computation; the rest are hits or dedups.
func TestRunNetConcurrentSingleflight(t *testing.T) {
	c := New()
	svc := services.ByName("H1")
	org, err := c.Origin(svc)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([]*player.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Run(svc.Player, org, testProfile(), 60, nil)
			if err == nil {
				results[i] = r
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result instance", i)
		}
	}
	s := c.Snapshot()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 computation", s.Misses)
	}
	if s.MemHits+s.Dedup != callers-1 {
		t.Errorf("hits+dedup = %d, want %d", s.MemHits+s.Dedup, callers-1)
	}
}

// TestRunNetBypass: a RequestGate func has no content identity, so the
// session must bypass the cache and recompute every time.
func TestRunNetBypass(t *testing.T) {
	c := New()
	svc := services.ByName("H1")
	org, err := c.Origin(svc)
	if err != nil {
		t.Fatal(err)
	}
	gate := modify.RejectAfter(4)
	for i := 0; i < 2; i++ {
		if _, err := c.Run(svc.Player, org, testProfile(), 60, func(p *player.Config) {
			p.RequestGate = gate
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Snapshot(); s.Bypass != 2 || s.Misses != 0 {
		t.Errorf("gated sessions: %+v, want 2 bypasses and no cache traffic", s)
	}
}

// TestResetDropsEntries: Reset forgets every session and zeroes every
// counter, so the next identical request is computed again — what a
// cold measurement after Reset relies on.
func TestResetDropsEntries(t *testing.T) {
	c := New()
	svc := services.ByName("H1")
	r1, err := c.RunService(svc, testProfile(), 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunService(svc, testProfile(), 60, func(p *player.Config) {
		p.RequestGate = modify.RejectAfter(4)
	}); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.Misses != 1 || s.Bypass != 1 || s.OriginBuilds != 1 || s.OriginHits != 1 {
		t.Fatalf("before Reset: %+v, want 1 miss, 1 bypass, 1 origin build, 1 origin hit", s)
	}
	c.Reset()
	if s := c.Snapshot(); s != (Stats{}) {
		t.Errorf("Reset left counters: %+v", s)
	}
	r2, err := c.RunService(svc, testProfile(), 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.Misses != 1 || s.MemHits != 0 || s.OriginBuilds != 1 {
		t.Errorf("after Reset: %+v, want the session and its origin rebuilt", s)
	}
	if r1 == r2 {
		t.Error("Reset kept the old session entry")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("recomputed session differs from the dropped one")
	}
}

// TestResetReleasesPresentations: everything a memo generation derived
// from its presentations — the client views sessions read and the
// content keys session keys are built from — is garbage once Reset has
// dropped the origins. Both used to sit in process-wide tables keyed by
// the presentation pointer, which Reset never reached: 5 MiB of live
// heap per cold report, every report.
func TestResetReleasesPresentations(t *testing.T) {
	c := New()
	const cycles = 8
	var live [cycles]uint64
	for i := range live {
		for _, svc := range services.All() {
			if _, err := c.RunService(svc, testProfile(), 30, nil); err != nil {
				t.Fatal(err)
			}
		}
		c.Reset()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		live[i] = ms.HeapAlloc
	}
	// The first cycle also pays for one-time initialisation.
	perCycle := (float64(live[cycles-1]) - float64(live[1])) / (cycles - 2) / (1 << 20)
	t.Logf("live heap after Reset+GC, per cycle: %v", live)
	if perCycle >= 1 {
		t.Errorf("live heap grows %.2f MiB per Reset cycle; a dropped generation is still reachable", perCycle)
	}
}

// TestOriginSharedByContent: two services serving identical content
// share one origin build.
func TestOriginSharedByContent(t *testing.T) {
	c := New()
	svc := services.ByName("H1")
	o1, err := c.Origin(svc)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := c.Origin(svc)
	if err != nil {
		t.Fatal(err)
	}
	if o1 != o2 {
		t.Error("same service built two origins")
	}
	s := c.Snapshot()
	if s.OriginBuilds != 1 || s.OriginHits != 1 {
		t.Errorf("origin counters: %+v", s)
	}
}
