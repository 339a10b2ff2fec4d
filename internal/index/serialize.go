package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"ktg/internal/graph"
	"ktg/internal/persist"
)

// Snapshot format. Save writes the checksummed persist container
// (format v2): a versioned header carrying the build parameters and a
// fingerprint of the source graph, followed by one CRC32C-protected
// little-endian payload section. ReadNL/ReadNLRNL read only that
// container; a file in the headerless v1 layout that predates it is
// recognised by its magic and reported as persist.ErrVersionSkew.
const (
	nlLegacyMagic    = "KTGNL\x01"
	nlrnlLegacyMagic = "KTGRN\x01"

	kindNL    = "nl"
	kindNLRNL = "nlrnl"

	sectionLevels = "levels"
	sectionLists  = "lists"
)

// maxLevelCount is the plausibility ceiling on any per-vertex level
// count (NL hop levels, NLRNL forward/reverse lists). It bounds the
// pre-allocation a length field can trigger, so a hostile snapshot
// cannot force a huge make; NL level counts are additionally
// cross-checked against the h recorded in the container header.
const maxLevelCount = 1024

type countingWriter struct {
	w   io.Writer
	err error
}

func (cw *countingWriter) u32(x uint32) {
	if cw.err != nil {
		return
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], x)
	_, cw.err = cw.w.Write(buf[:])
}

func (cw *countingWriter) list(l []graph.Vertex) {
	cw.u32(uint32(len(l)))
	for _, v := range l {
		cw.u32(v)
	}
}

type reader struct {
	r   io.Reader
	err error
}

func (rd *reader) u32() uint32 {
	if rd.err != nil {
		return 0
	}
	var buf [4]byte
	if _, err := io.ReadFull(rd.r, buf[:]); err != nil {
		rd.err = err
		return 0
	}
	return binary.LittleEndian.Uint32(buf[:])
}

func (rd *reader) list(maxVertex uint32) []graph.Vertex {
	n := rd.u32()
	if rd.err != nil {
		return nil
	}
	if n > maxVertex+1 {
		rd.err = fmt.Errorf("index: implausible list length %d", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	l := make([]graph.Vertex, n)
	for i := range l {
		v := rd.u32()
		if rd.err != nil {
			return nil
		}
		if v > maxVertex {
			rd.err = fmt.Errorf("index: vertex id %d out of range", v)
			return nil
		}
		l[i] = v
	}
	return l
}

// traceSerialize records one save/load on the serialize metrics. Used
// via defer.
func traceSerialize(start time.Time, load bool) {
	d := time.Since(start)
	if load {
		mIndexLoads.Inc()
	} else {
		mIndexSaves.Inc()
	}
	mIndexSerializeNanos.Observe(d.Nanoseconds())
}

// checkFingerprint compares the container header against the live graph
// the index is being attached to.
func checkFingerprint(hdr persist.Header, g graph.Topology, what string) error {
	fp := persist.FingerprintOf(g)
	if hdr.Graph != fp {
		return fmt.Errorf("index: %s snapshot built for graph [%v], supplied graph is [%v]: %w",
			what, hdr.Graph, fp, persist.ErrFingerprintMismatch)
	}
	return nil
}

// Save serializes the NL index (lists and h; the graph itself is not
// embedded — supply it again at load time) as a checksummed v2
// container. Pair it with persist.WriteFileAtomic (or NL SaveFile via
// the public API) for crash-safe on-disk snapshots.
func (nl *NL) Save(w io.Writer) error {
	defer traceSerialize(time.Now(), false)
	pw, err := persist.NewWriter(w, persist.Header{
		Kind:  kindNL,
		Param: uint32(nl.h),
		Graph: persist.FingerprintOf(nl.g),
	})
	if err != nil {
		return fmt.Errorf("index: writing NL: %w", err)
	}
	if err := pw.Section(sectionLevels, nl.writeBody); err != nil {
		return fmt.Errorf("index: writing NL: %w", err)
	}
	if err := pw.Close(); err != nil {
		return fmt.Errorf("index: writing NL: %w", err)
	}
	return nil
}

// writeBody emits the NL payload: n, h, then per vertex the level count
// and each level's list.
func (nl *NL) writeBody(w io.Writer) error {
	cw := &countingWriter{w: w}
	cw.u32(uint32(len(nl.levels)))
	cw.u32(uint32(nl.h))
	for _, lists := range nl.levels {
		cw.u32(uint32(len(lists)))
		for _, l := range lists {
			cw.list(l)
		}
	}
	return cw.err
}

// ReadNL loads an NL index written by Save. g must be the topology the
// index was built from (it is consulted for expansions beyond h); a
// snapshot of a different graph is rejected with
// persist.ErrFingerprintMismatch before any payload is parsed, and a
// legacy v1 file with persist.ErrVersionSkew.
func ReadNL(r io.Reader, g graph.Topology) (*NL, error) {
	defer traceSerialize(time.Now(), true)
	br := bufio.NewReader(r)
	if err := persist.RejectLegacy(br, nlLegacyMagic); err != nil {
		return nil, fmt.Errorf("index: reading NL: %w", err)
	}
	pr, err := persist.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading NL: %w", err)
	}
	hdr := pr.Header()
	if hdr.Kind != kindNL {
		return nil, fmt.Errorf("index: snapshot holds a %q index, not NL: %w", hdr.Kind, persist.ErrCorrupt)
	}
	if err := checkFingerprint(hdr, g, "NL"); err != nil {
		return nil, err
	}
	if hdr.Param == 0 || hdr.Param > maxLevelCount {
		return nil, fmt.Errorf("index: implausible NL h %d in header: %w", hdr.Param, persist.ErrCorrupt)
	}
	sec, err := pr.Section(sectionLevels)
	if err != nil {
		return nil, fmt.Errorf("index: reading NL: %w", err)
	}
	nl, err := readNLBody(sec, g, int(hdr.Param))
	if err != nil {
		return nil, err
	}
	// The container is trustworthy only once the end frame and strict
	// EOF have been verified; never return an index before that.
	if err := pr.Close(); err != nil {
		return nil, fmt.Errorf("index: reading NL: %w", err)
	}
	return nl, nil
}

// readNLBody parses the NL payload. wantH is the h recorded in the
// container header and must match the body's.
func readNLBody(r io.Reader, g graph.Topology, wantH int) (*NL, error) {
	rd := &reader{r: r}
	n := rd.u32()
	h := rd.u32()
	if rd.err != nil {
		return nil, fmt.Errorf("index: reading NL header: %w", rd.err)
	}
	if int(n) != g.NumVertices() {
		return nil, fmt.Errorf("index: NL built for %d vertices, graph has %d", n, g.NumVertices())
	}
	if h == 0 || h > maxLevelCount {
		return nil, fmt.Errorf("index: implausible NL h %d", h)
	}
	if int(h) != wantH {
		return nil, fmt.Errorf("index: NL body h %d disagrees with header h %d: %w", h, wantH, persist.ErrCorrupt)
	}
	nl := &NL{
		g:      g,
		h:      int(h),
		levels: make([][][]graph.Vertex, n),
	}
	nl.initScratch(int(n))
	for v := uint32(0); v < n; v++ {
		numLevels := rd.u32()
		if rd.err != nil {
			return nil, fmt.Errorf("index: reading NL vertex %d: %w", v, rd.err)
		}
		// The builder materializes exactly h level slices per vertex and
		// the query path indexes levels[h-1] unconditionally, so any
		// other count is corruption.
		if numLevels != h {
			return nil, fmt.Errorf("index: NL vertex %d has %d levels, index h is %d", v, numLevels, h)
		}
		lists := make([][]graph.Vertex, numLevels)
		for d := range lists {
			lists[d] = rd.list(n - 1)
		}
		if rd.err != nil {
			return nil, fmt.Errorf("index: reading NL vertex %d: %w", v, rd.err)
		}
		nl.levels[v] = lists
	}
	return nl, nil
}

// Save serializes the NLRNL index (component labels, c values, and both
// list families; the graph itself is not embedded) as a checksummed v2
// container. The recorded fingerprint reflects the index's own mutable
// copy of the graph, so a snapshot taken after InsertEdge/RemoveEdge
// will (correctly) refuse to attach to the original topology.
func (x *NLRNL) Save(w io.Writer) error {
	defer traceSerialize(time.Now(), false)
	pw, err := persist.NewWriter(w, persist.Header{
		Kind:  kindNLRNL,
		Graph: persist.FingerprintOf(x.g),
	})
	if err != nil {
		return fmt.Errorf("index: writing NLRNL: %w", err)
	}
	if err := pw.Section(sectionLists, x.writeBody); err != nil {
		return fmt.Errorf("index: writing NLRNL: %w", err)
	}
	if err := pw.Close(); err != nil {
		return fmt.Errorf("index: writing NLRNL: %w", err)
	}
	return nil
}

// writeBody emits the NLRNL payload.
func (x *NLRNL) writeBody(w io.Writer) error {
	cw := &countingWriter{w: w}
	n := len(x.c)
	cw.u32(uint32(n))
	for a := 0; a < n; a++ {
		cw.u32(uint32(x.comp[a]))
		cw.u32(uint32(x.c[a]))
		cw.u32(uint32(len(x.fwd[a])))
		for _, l := range x.fwd[a] {
			cw.list(l)
		}
		cw.u32(uint32(len(x.rev[a])))
		for _, l := range x.rev[a] {
			cw.list(l)
		}
	}
	return cw.err
}

// ReadNLRNL loads an NLRNL index written by Save. g must be the
// topology the index was built from; the loaded index copies it so that
// dynamic updates remain available. A legacy v1 file is rejected with
// persist.ErrVersionSkew.
func ReadNLRNL(r io.Reader, g graph.Topology) (*NLRNL, error) {
	defer traceSerialize(time.Now(), true)
	br := bufio.NewReader(r)
	if err := persist.RejectLegacy(br, nlrnlLegacyMagic); err != nil {
		return nil, fmt.Errorf("index: reading NLRNL: %w", err)
	}
	pr, err := persist.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading NLRNL: %w", err)
	}
	hdr := pr.Header()
	if hdr.Kind != kindNLRNL {
		return nil, fmt.Errorf("index: snapshot holds a %q index, not NLRNL: %w", hdr.Kind, persist.ErrCorrupt)
	}
	if err := checkFingerprint(hdr, g, "NLRNL"); err != nil {
		return nil, err
	}
	sec, err := pr.Section(sectionLists)
	if err != nil {
		return nil, fmt.Errorf("index: reading NLRNL: %w", err)
	}
	x, err := readNLRNLBody(sec, g)
	if err != nil {
		return nil, err
	}
	if err := pr.Close(); err != nil {
		return nil, fmt.Errorf("index: reading NLRNL: %w", err)
	}
	return x, nil
}

func readNLRNLBody(r io.Reader, g graph.Topology) (*NLRNL, error) {
	rd := &reader{r: r}
	n := rd.u32()
	if rd.err != nil {
		return nil, fmt.Errorf("index: reading NLRNL header: %w", rd.err)
	}
	if int(n) != g.NumVertices() {
		return nil, fmt.Errorf("index: NLRNL built for %d vertices, graph has %d", n, g.NumVertices())
	}
	x := &NLRNL{
		g:    graph.MutableFrom(g),
		comp: make([]int32, n),
		c:    make([]int32, n),
		fwd:  make([][][]graph.Vertex, n),
		rev:  make([][][]graph.Vertex, n),
	}
	for a := uint32(0); a < n; a++ {
		x.comp[a] = int32(rd.u32())
		x.c[a] = int32(rd.u32())
		nf := rd.u32()
		if rd.err == nil && nf > maxLevelCount {
			rd.err = fmt.Errorf("implausible forward level count %d", nf)
		}
		if rd.err != nil {
			return nil, fmt.Errorf("index: reading NLRNL vertex %d: %w", a, rd.err)
		}
		if nf > 0 { // keep nil for empty families, as the builder does
			x.fwd[a] = make([][]graph.Vertex, nf)
		}
		for d := range x.fwd[a] {
			x.fwd[a][d] = rd.list(n - 1)
		}
		nr := rd.u32()
		if rd.err == nil && nr > maxLevelCount {
			rd.err = fmt.Errorf("implausible reverse level count %d", nr)
		}
		if rd.err != nil {
			return nil, fmt.Errorf("index: reading NLRNL vertex %d: %w", a, rd.err)
		}
		if nr > 0 {
			x.rev[a] = make([][]graph.Vertex, nr)
		}
		for j := range x.rev[a] {
			x.rev[a][j] = rd.list(n - 1)
		}
		if rd.err != nil {
			return nil, fmt.Errorf("index: reading NLRNL vertex %d: %w", a, rd.err)
		}
	}
	return x, nil
}
