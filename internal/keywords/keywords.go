// Package keywords provides the attribute substrate of the KTG library:
// a string-interning vocabulary, per-vertex keyword sets, and compiled
// query views that turn keyword arithmetic into bitmask arithmetic.
//
// The paper's objective functions (Definitions 5, 6, 8) are all ratios
// with the constant denominator |W_Q|; internally the library works with
// integer covered-keyword counts and only converts to ratios at the API
// boundary, so comparisons are exact.
package keywords

import (
	"fmt"
	"slices"

	"ktg/internal/bitset"
	"ktg/internal/graph"
)

// ID identifies an interned keyword within a Vocabulary.
type ID = uint32

// Vocabulary interns keyword strings to dense IDs. The zero value is
// ready to use.
type Vocabulary struct {
	byName map[string]ID
	names  []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{byName: make(map[string]ID)}
}

// Intern returns the ID for name, assigning a fresh one on first use.
func (v *Vocabulary) Intern(name string) ID {
	if id, ok := v.byName[name]; ok {
		return id
	}
	id := ID(len(v.names))
	v.byName[name] = id
	v.names = append(v.names, name)
	return id
}

// Lookup returns the ID for name and whether it is known.
func (v *Vocabulary) Lookup(name string) (ID, bool) {
	id, ok := v.byName[name]
	return id, ok
}

// Name returns the string for id. It panics on unknown ids.
func (v *Vocabulary) Name(id ID) string {
	if int(id) >= len(v.names) {
		panic(fmt.Sprintf("keywords: unknown id %d", id))
	}
	return v.names[id]
}

// Size returns the number of interned keywords.
func (v *Vocabulary) Size() int { return len(v.names) }

// Attributes associates each vertex of a graph with a sorted set of
// keyword IDs.
type Attributes struct {
	vocab *Vocabulary
	of    [][]ID
}

// NewAttributes returns empty attributes for n vertices over vocab.
// A nil vocab allocates a fresh one.
func NewAttributes(n int, vocab *Vocabulary) *Attributes {
	if vocab == nil {
		vocab = NewVocabulary()
	}
	return &Attributes{vocab: vocab, of: make([][]ID, n)}
}

// Vocabulary returns the vocabulary the attributes intern into.
func (a *Attributes) Vocabulary() *Vocabulary { return a.vocab }

// NumVertices returns the number of vertices covered.
func (a *Attributes) NumVertices() int { return len(a.of) }

// Assign replaces vertex v's keyword set with the given names, interning
// as needed. Duplicates are collapsed.
func (a *Attributes) Assign(v graph.Vertex, names ...string) {
	ids := make([]ID, 0, len(names))
	for _, n := range names {
		ids = append(ids, a.vocab.Intern(n))
	}
	a.AssignIDs(v, ids...)
}

// AssignIDs replaces vertex v's keyword set with the given IDs.
// Duplicates are collapsed; the stored set is sorted.
func (a *Attributes) AssignIDs(v graph.Vertex, ids ...ID) {
	set := append([]ID(nil), ids...)
	slices.Sort(set)
	uniq := set[:0]
	for i, id := range set {
		if i == 0 || id != set[i-1] {
			uniq = append(uniq, id)
		}
	}
	a.of[v] = uniq
}

// Keywords returns vertex v's sorted keyword IDs. The slice must not be
// modified.
func (a *Attributes) Keywords(v graph.Vertex) []ID { return a.of[v] }

// KeywordNames returns vertex v's keywords as strings.
func (a *Attributes) KeywordNames(v graph.Vertex) []string {
	ids := a.of[v]
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = a.vocab.Name(id)
	}
	return out
}

// Has reports whether vertex v carries keyword id.
func (a *Attributes) Has(v graph.Vertex, id ID) bool {
	_, ok := slices.BinarySearch(a.of[v], id)
	return ok
}

// AverageKeywordsPerVertex returns the mean keyword-set size.
func (a *Attributes) AverageKeywordsPerVertex() float64 {
	if len(a.of) == 0 {
		return 0
	}
	total := 0
	for _, ks := range a.of {
		total += len(ks)
	}
	return float64(total) / float64(len(a.of))
}

// Query is a compiled view of a query keyword set W_Q against a fixed
// Attributes instance. It precomputes, for every vertex, the bitmask of
// query keywords the vertex covers, which makes QKC/VKC computations
// single popcounts.
type Query struct {
	ids   []ID // sorted, deduplicated W_Q
	width int
	masks []bitset.Set // per-vertex; zero-width Set for non-covering vertices

	empty bitset.Set // reusable all-zero mask of the query width
}

// CompileQuery builds the per-vertex coverage masks for the query keyword
// IDs. Unknown IDs are permitted (they simply cover nothing). An empty
// query is rejected because QKC would divide by zero.
func CompileQuery(a *Attributes, queryIDs []ID) (*Query, error) {
	ids := append([]ID(nil), queryIDs...)
	slices.Sort(ids)
	uniq := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			uniq = append(uniq, id)
		}
	}
	ids = uniq
	if len(ids) == 0 {
		return nil, fmt.Errorf("keywords: empty query keyword set")
	}
	pos := make(map[ID]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	q := &Query{
		ids:   ids,
		width: len(ids),
		masks: make([]bitset.Set, a.NumVertices()),
		empty: bitset.New(len(ids)),
	}
	for v := range q.masks {
		var m bitset.Set
		for _, id := range a.of[v] {
			if i, ok := pos[id]; ok {
				if m.Width() == 0 {
					m = bitset.New(q.width)
				}
				m.Add(i)
			}
		}
		if m.Width() == 0 {
			m = q.empty
		}
		q.masks[v] = m
	}
	return q, nil
}

// CompileQueryNames is CompileQuery for keyword strings; names missing
// from the vocabulary still occupy a bit of W_Q (they are simply covered
// by no vertex), mirroring the paper where W_Q comes from the document,
// not from the network.
func CompileQueryNames(a *Attributes, names []string) (*Query, error) {
	return CompileQuery(a, QueryIDsForNames(a, names))
}

// QueryIDsForNames maps query keyword strings to IDs for CompileQuery.
// Unknown names receive distinct synthetic out-of-vocabulary ids so each
// still widens W_Q without matching any vertex.
func QueryIDsForNames(a *Attributes, names []string) []ID {
	ids := make([]ID, 0, len(names))
	next := ID(a.vocab.Size())
	seen := map[string]ID{}
	for _, n := range names {
		if id, ok := a.vocab.Lookup(n); ok {
			ids = append(ids, id)
			continue
		}
		id, ok := seen[n]
		if !ok {
			id = next
			next++
			seen[n] = id
		}
		ids = append(ids, id)
	}
	return ids
}

// Width returns |W_Q|.
func (q *Query) Width() int { return q.width }

// IDs returns the sorted, deduplicated query keyword IDs.
func (q *Query) IDs() []ID { return q.ids }

// Mask returns the coverage mask of vertex v over W_Q. The returned set
// must not be modified.
func (q *Query) Mask(v graph.Vertex) bitset.Set { return q.masks[v] }

// Covers reports whether vertex v covers at least one query keyword —
// the qualification test of Definition 7 (0 < QKC(v)).
func (q *Query) Covers(v graph.Vertex) bool { return q.masks[v].Any() }

// CoverageCount returns |k_v ∩ W_Q| for vertex v.
func (q *Query) CoverageCount(v graph.Vertex) int { return q.masks[v].Count() }

// QKC returns the query keyword coverage of vertex v (Definition 5).
func (q *Query) QKC(v graph.Vertex) float64 {
	return float64(q.CoverageCount(v)) / float64(q.width)
}

// GroupMask returns the union coverage mask of a group.
func (q *Query) GroupMask(group []graph.Vertex) bitset.Set {
	m := bitset.New(q.width)
	for _, v := range group {
		m.UnionWith(q.masks[v])
	}
	return m
}

// GroupCoverageCount returns |⋃_{v∈g}(k_v ∩ W_Q)|.
func (q *Query) GroupCoverageCount(group []graph.Vertex) int {
	return q.GroupMask(group).Count()
}

// GroupQKC returns the query keyword coverage of a group (Definition 6).
func (q *Query) GroupQKC(group []graph.Vertex) float64 {
	return float64(q.GroupCoverageCount(group)) / float64(q.width)
}

// VKCCount returns the valid keyword coverage count of v with respect to
// an already-covered mask (Definition 8, scaled by |W_Q|).
func (q *Query) VKCCount(v graph.Vertex, covered bitset.Set) int {
	return q.masks[v].CountDifference(covered)
}

// Candidates returns the vertices covering at least one query keyword, in
// increasing id order — the initial S_R of the algorithms.
func (q *Query) Candidates() []graph.Vertex {
	out := make([]graph.Vertex, 0, 64)
	for v := range q.masks {
		if q.masks[v].Any() {
			out = append(out, graph.Vertex(v))
		}
	}
	return out
}
