package a

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// sortedKeys is the safe idiom: the keys are appended in random map
// order but sorted before anyone iterates them.
func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// unsortedKeys is sortedKeys with the key-sort deleted — the regression
// the determinism contract exists to catch.
func unsortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k) // want `append to "ks" inside range over map`
	}
	return ks
}

func sortSliceVariant(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func writesOutput(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt\.Println inside range over map writes output`
	}
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `WriteString inside range over map writes output`
	}
	for k := range m {
		fmt.Fprintf(os.Stderr, "%s\n", k) // want `fmt\.Fprintf inside range over map`
	}
}

func accumulates(m map[string]float64) (float64, string) {
	var sum float64
	var text string
	for _, v := range m {
		sum += v // want `float accumulation into "sum" inside range over map`
	}
	for k := range m {
		text += k // want `string concatenation into "text" inside range over map`
	}
	return sum, text
}

// Order-insensitive uses must stay quiet.
func fine(m map[string]float64) (float64, map[string]float64, int) {
	var max float64
	out := map[string]float64{}
	n := 0
	for k, v := range m {
		if v > max {
			max = v // plain assignment, last-writer-wins on a max: not flagged
		}
		out[k] = v  // keyed writes are order-insensitive
		out[k] += 1 // and so is keyed accumulation
		n++         // integer counting is associative
	}
	// Summing over the sorted keys is the contract's answer.
	var sum float64
	for _, k := range sortedKeys(m) {
		sum += m[k]
	}
	return max, out, n
}

type rendition struct {
	segments []int
	total    float64
}

// Building one value per key is order-insensitive even though it
// appends and accumulates: the accumulator is loop-local.
func perKey(m map[string][]int) map[string]*rendition {
	out := map[string]*rendition{}
	for k, refs := range m {
		r := &rendition{}
		for _, ref := range refs {
			r.segments = append(r.segments, ref)
			r.total += float64(ref)
		}
		out[k] = r
	}
	return out
}

// The generic shape of the idiom: ranging over a type parameter whose
// type set is maps is still map iteration.
func sortedKeysGeneric[M ~map[string]float64](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func unsortedKeysGeneric[M ~map[string]float64](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k) // want `append to "ks" inside range over map`
	}
	return ks
}

// A slice-typed parameter must not be mistaken for a map.
func sliceGeneric[S ~[]float64](s S) []float64 {
	var out []float64
	for _, v := range s {
		out = append(out, v)
	}
	return out
}

func allowed(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k) //vodlint:allow maprange — order handled by caller
	}
	return ks
}
