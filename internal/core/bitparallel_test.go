package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ktg/internal/graph"
	"ktg/internal/index"
)

// TestSearchAsksEachPairOnce checks the conflict-row memo over the
// exactness table: a search asks the oracle about each unordered pair of
// frontier vertices at most once, plus one question per (query vertex,
// candidate) pair while the frontier is built.
func TestSearchAsksEachPairOnce(t *testing.T) {
	forEachExactCase(t, func(t *testing.T, c exactCase, oracles []index.Oracle) {
		for _, opts := range []Options{c.opts(oracles[2]), func() Options {
			o := c.opts(oracles[2])
			o.DisableKeywordPruning = true
			o.MaxNodes = 20000
			return o
		}()} {
			s, err := run(c.inst.g, c.inst.attrs, c.q, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			f := int64(s.frontier)
			bound := f*(f-1)/2 + int64(len(c.inst.qv)*len(s.kq.Candidates()))
			if s.stats.OracleCalls > bound {
				t.Fatalf("%s (pruning=%v): %d oracle calls over a frontier of %d, bound %d",
					c.key(), !opts.DisableKeywordPruning, s.stats.OracleCalls, f, bound)
			}
		}
	})
}

// TestCountingSortMatchesComparator checks the child ordering on inputs
// full of ties: counting-sorting candidates listed in ascending rank by
// key gives exactly the comparator order (key desc, degree asc, id asc)
// when ranks are ascending (degree, id), and (key desc, id asc) when
// ranks are ascending id.
func TestCountingSortMatchesComparator(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(150)
		width := 1 + r.Intn(6)
		deg := map[graph.Vertex]int32{}
		var cands []candidate
		for _, v := range r.Perm(4 * (n + 1))[:n] {
			cands = append(cands, candidate{v: graph.Vertex(v), key: int32(r.Intn(width + 1))})
			deg[graph.Vertex(v)] = int32(r.Intn(4))
		}
		for _, byDegree := range []bool{false, true} {
			ranked := slices.Clone(cands)
			slices.SortFunc(ranked, func(a, b candidate) int {
				if byDegree && deg[a.v] != deg[b.v] {
					return int(deg[a.v] - deg[b.v])
				}
				return int(a.v) - int(b.v)
			})
			for i := range ranked {
				ranked[i].rank = int32(i)
			}
			want := slices.Clone(ranked)
			slices.SortFunc(want, func(a, b candidate) int {
				if a.key != b.key {
					return int(b.key - a.key)
				}
				if byDegree && deg[a.v] != deg[b.v] {
					return int(deg[a.v] - deg[b.v])
				}
				return int(a.v) - int(b.v)
			})
			got := countingSort(ranked, make([]candidate, 0, n), make([]int, width+1))
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d (byDegree=%v): counting sort\n%v\nwant\n%v", trial, byDegree, got, want)
			}
		}
	}
}

// TestConflictRowCapIsExact lowers the conflict-row byte cap so the
// search runs with no cached rows at all, and with only a few before it
// falls back to the uncached spare row: groups and every work counter
// but OracleCalls must equal the uncapped memo's.
func TestConflictRowCapIsExact(t *testing.T) {
	saved := conflictRowBytes
	t.Cleanup(func() { conflictRowBytes = saved })
	forEachExactCase(t, func(t *testing.T, c exactCase, oracles []index.Oracle) {
		conflictRowBytes = saved
		opts := c.opts(oracles[2])
		s, err := run(c.inst.g, c.inst.attrs, c.q, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := &Result{Groups: s.heap.Groups(), Stats: s.stats}
		for _, rows := range []int{0, 3} {
			conflictRowBytes = rows * 2 * s.words * 8
			got, err := Search(c.inst.g, c.inst.attrs, c.q, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s rows=%d", c.key(), rows)
			if !reflect.DeepEqual(countersOf(want), countersOf(got)) {
				t.Fatalf("%s: capped rows changed the search:\nwant %+v\ngot  %+v", label, countersOf(want), countersOf(got))
			}
			if got.Stats.OracleCalls < want.Stats.OracleCalls {
				t.Fatalf("%s: %d oracle calls without the memo, %d with it", label, got.Stats.OracleCalls, want.Stats.OracleCalls)
			}
		}
	})
}
