package core

import (
	"sort"
	"testing"

	"autofl/internal/rng"
)

// TestTopRankedMatchesStableSort checks topRanked against a full
// stable sort of the same slice: random inputs drawn from a few
// values and tie priorities, so repeated values and repeated (value,
// tie) pairs are common, for k at and around every boundary.
func TestTopRankedMatchesStableSort(t *testing.T) {
	s := rng.New(3)
	const K = 20
	for trial := 0; trial < 300; trial++ {
		n := 1 + s.IntN(120)
		in := make([]ranked, n)
		for i := range in {
			in[i] = ranked{
				idx:    i,
				value:  float64(s.IntN(5)),
				tie:    float64(s.IntN(4)) / 4,
				action: int8(s.IntN(6)),
			}
		}
		want := append([]ranked(nil), in...)
		sort.SliceStable(want, func(i, j int) bool { return ahead(&want[i], &want[j]) })
		for _, k := range []int{0, 1, K, n - 1, n, n + 5} {
			r := append([]ranked(nil), in...)
			got := topRanked(r, k)
			wantK := want[:max(0, min(k, n))]
			if len(got) != len(wantK) {
				t.Fatalf("n=%d k=%d: got %d entries, want %d", n, k, len(got), len(wantK))
			}
			for i := range got {
				if got[i] != wantK[i] {
					t.Fatalf("n=%d k=%d: entry %d = %+v, want %+v", n, k, i, got[i], wantK[i])
				}
			}
		}
	}
}
