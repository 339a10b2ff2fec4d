package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ktg/internal/persist"
)

// ReadEdgeList parses a whitespace- or comma-separated edge list in the
// SNAP text format: one "u v" pair per line, with '#' and '%' lines
// treated as comments. Vertex ids must be non-negative integers; the
// graph gets max(id)+1 vertices (or n if larger). Malformed lines yield
// an error naming the offending line.
func ReadEdgeList(r io.Reader, n int) (*Graph, error) {
	b := NewBuilder(n)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		line = strings.ReplaceAll(line, ",", " ")
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want two vertex ids, got %q", lineNo, line)
		}
		u, err := parseVertex(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := parseVertex(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return b.Build(), nil
}

func parseVertex(s string) (Vertex, error) {
	x, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex id %q: %v", s, err)
	}
	return Vertex(x), nil
}

// WriteEdgeList writes the graph as "u\tv" lines with u < v, preceded by
// a comment header, in a format ReadEdgeList accepts.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vertices: %d edges: %d\n", g.NumVertices(), g.NumEdges())
	var err error
	g.Edges(func(u, v Vertex) bool {
		_, err = fmt.Fprintf(bw, "%d\t%d\n", u, v)
		return err == nil
	})
	if err != nil {
		return fmt.Errorf("graph: writing edge list: %w", err)
	}
	return bw.Flush()
}

// legacyMagic opens the headerless v1 snapshot format that predates the
// persist container. ReadBinary recognises it only to report version
// skew; v1 files are no longer read or written.
const legacyMagic = "KTGG\x01"

const kindGraph = "graph"

// WriteBinary writes a binary snapshot of the graph as a checksummed
// persist container (format v2): a versioned header with the graph's
// own fingerprint, and one CRC32C-protected CSR section. Pair it with
// persist.WriteFileAtomic for crash-safe on-disk snapshots.
func WriteBinary(w io.Writer, g *Graph) error {
	pw, err := persist.NewWriter(w, persist.Header{
		Kind:  kindGraph,
		Graph: persist.FingerprintOf(g),
	})
	if err != nil {
		return fmt.Errorf("graph: writing snapshot: %w", err)
	}
	if err := pw.Section("csr", g.writeCSR); err != nil {
		return fmt.Errorf("graph: writing snapshot: %w", err)
	}
	if err := pw.Close(); err != nil {
		return fmt.Errorf("graph: writing snapshot: %w", err)
	}
	return nil
}

// writeCSR emits the CSR payload: n, len(adj), the offset array, the
// adjacency array.
func (g *Graph) writeCSR(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, uint64(g.NumVertices())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(g.adj))); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.adj); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary reads a snapshot written by WriteBinary, verifying every
// section checksum and the CSR's structural invariants, and
// cross-checks the reconstructed graph against the header fingerprint,
// so a flipped byte anywhere in the file is surfaced as an error rather
// than a silently different graph. A legacy v1 file yields an error
// wrapping persist.ErrVersionSkew.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	if err := persist.RejectLegacy(br, legacyMagic); err != nil {
		return nil, fmt.Errorf("graph: reading snapshot: %w", err)
	}
	pr, err := persist.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("graph: reading snapshot: %w", err)
	}
	hdr := pr.Header()
	if hdr.Kind != kindGraph {
		return nil, fmt.Errorf("graph: snapshot holds %q, not a graph: %w", hdr.Kind, persist.ErrCorrupt)
	}
	sec, err := pr.Section("csr")
	if err != nil {
		return nil, fmt.Errorf("graph: reading snapshot: %w", err)
	}
	g, err := readCSR(sec)
	if err != nil {
		return nil, err
	}
	if err := pr.Close(); err != nil {
		return nil, fmt.Errorf("graph: reading snapshot: %w", err)
	}
	// Self-check: the reconstructed graph must reproduce the header
	// fingerprint exactly.
	if fp := persist.FingerprintOf(g); fp != hdr.Graph {
		return nil, fmt.Errorf("graph: snapshot fingerprint [%v] does not match payload [%v]: %w",
			hdr.Graph, fp, persist.ErrCorrupt)
	}
	return g, nil
}

// readCSR parses the CSR payload and validates its structural
// invariants.
func readCSR(r io.Reader) (*Graph, error) {
	var n, m uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("graph: reading vertex count: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("graph: reading adjacency length: %w", err)
	}
	const maxReasonable = 1 << 33
	if n > maxReasonable || m > maxReasonable {
		return nil, fmt.Errorf("graph: implausible snapshot sizes n=%d m=%d", n, m)
	}
	// Read both arrays in bounded chunks so a forged header cannot force
	// a huge up-front allocation: memory grows only as fast as actual
	// input arrives, and truncated input fails early.
	offsets, err := readInt64s(r, n+1)
	if err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	adj, err := readUint32s(r, m)
	if err != nil {
		return nil, fmt.Errorf("graph: reading adjacency: %w", err)
	}
	g := &Graph{offsets: offsets, adj: adj}
	if g.offsets[0] != 0 || g.offsets[n] != int64(m) {
		return nil, fmt.Errorf("graph: corrupt offsets")
	}
	for i := 0; i < int(n); i++ {
		if g.offsets[i] > g.offsets[i+1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	if err := Validate(g); err != nil {
		return nil, err
	}
	return g, nil
}

// chunkElems bounds how many array elements are allocated ahead of the
// bytes actually read, defending loaders against forged length headers.
const chunkElems = 1 << 16

func readInt64s(r io.Reader, count uint64) ([]int64, error) {
	out := make([]int64, 0, min64(count, chunkElems))
	buf := make([]byte, 8*chunkElems)
	for read := uint64(0); read < count; {
		batch := min64(count-read, chunkElems)
		b := buf[:8*batch]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := uint64(0); i < batch; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
		read += batch
	}
	return out, nil
}

func readUint32s(r io.Reader, count uint64) ([]uint32, error) {
	out := make([]uint32, 0, min64(count, chunkElems))
	buf := make([]byte, 4*chunkElems)
	for read := uint64(0); read < count; {
		batch := min64(count-read, chunkElems)
		b := buf[:4*batch]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := uint64(0); i < batch; i++ {
			out = append(out, binary.LittleEndian.Uint32(b[4*i:]))
		}
		read += batch
	}
	return out, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
