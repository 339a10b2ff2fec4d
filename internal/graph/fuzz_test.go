package graph

import (
	"bytes"
	"strings"
	"testing"

	"ktg/internal/persist"
)

// FuzzReadEdgeList hardens the text parser: arbitrary input must either
// parse into a structurally valid graph or fail cleanly — never panic.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n3,4\n")
	f.Add("")
	f.Add("0 0\n0 1\n0 1\n")
	f.Add("999999 1\n")
	f.Add("a b\n")
	f.Add("1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input), 0)
		if err != nil {
			return
		}
		if g.NumVertices() > 0 {
			if err := Validate(g); err != nil {
				t.Fatalf("parsed graph invalid: %v", err)
			}
		}
	})
}

// FuzzReadBinary hardens the binary snapshot reader against corruption:
// any accepted input must decode to exactly the saved graph. The
// container's checksums and self-fingerprint make accept-but-different
// a CRC collision, and the bare legacy and container magics must be
// rejected.
func FuzzReadBinary(f *testing.F) {
	golden := FromEdges(4, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}})
	var snap bytes.Buffer
	if err := WriteBinary(&snap, golden); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:snap.Len()/2])
	f.Add([]byte{})
	f.Add([]byte(legacyMagic))
	f.Add([]byte(persist.Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		requireSameGraph(t, golden, g)
	})
}
