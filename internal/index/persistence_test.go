package index

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ktg/internal/graph"
	"ktg/internal/persist"
)

// TestNLFlipEveryByteDetected proves the acceptance property end to end
// for NL snapshots: flipping any single byte of a v2 snapshot makes the
// load fail — never a silently different index.
func TestNLFlipEveryByteDetected(t *testing.T) {
	g := fixture()
	nl, err := BuildNL(g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	flipEveryByte(t, buf.Bytes(), func(data []byte) error {
		_, err := ReadNL(bytes.NewReader(data), g)
		return err
	})
}

func TestNLRNLFlipEveryByteDetected(t *testing.T) {
	g := fixture()
	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	flipEveryByte(t, buf.Bytes(), func(data []byte) error {
		_, err := ReadNLRNL(bytes.NewReader(data), g)
		return err
	})
}

// flipEveryByte XORs 0xFF into every offset of golden in turn and
// asserts load rejects each mutant.
func flipEveryByte(t *testing.T, golden []byte, load func([]byte) error) {
	t.Helper()
	mutated := make([]byte, len(golden))
	for off := range golden {
		copy(mutated, golden)
		mutated[off] ^= 0xFF
		if load(mutated) == nil {
			t.Fatalf("flip at offset %d/%d went undetected", off, len(golden))
		}
	}
}

// TestLegacyV1SnapshotsRebuildAsVersionSkew pins how the headerless v1
// layout that predates the container is handled now that it is no
// longer read: a file opening with the v1 magic is rebuilt as version
// skew (never counted as corruption), the rebuilt index equals a fresh
// build, and the re-save leaves a v2 container that loads next time.
func TestLegacyV1SnapshotsRebuildAsVersionSkew(t *testing.T) {
	g := fixture()
	// legacyFile writes magic followed by the payload the v1 writer
	// emitted after it.
	legacyFile := func(magic string, body func(io.Writer) error) string {
		t.Helper()
		var buf bytes.Buffer
		buf.WriteString(magic)
		if err := body(&buf); err != nil {
			t.Fatal(err)
		}
		path := snapPath(t)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	checkRebuilt := func(what, path string, out LoadOutcome) {
		t.Helper()
		if out.Loaded || out.Reason != ReasonVersion || !out.Saved {
			t.Fatalf("%s outcome = %+v, want rebuild(version) + saved", what, out)
		}
		if !errors.Is(out.LoadErr, persist.ErrVersionSkew) || errors.Is(out.LoadErr, persist.ErrCorrupt) {
			t.Fatalf("%s LoadErr = %v, want ErrVersionSkew", what, out.LoadErr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(persist.Magic)) {
			t.Fatalf("%s re-save is not a v2 container: %q", what, data[:8])
		}
	}
	corruptBefore := mSnapRebuildCorrupt.Value()
	versionBefore := mSnapRebuildVersion.Value()

	fresh, err := BuildNL(g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := legacyFile(nlLegacyMagic, fresh.writeBody)
	nl, out, err := LoadOrBuildNL(path, g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkRebuilt("NL", path, out)
	if nl.H() != fresh.H() || !sameLists(nl.levels, fresh.levels) {
		t.Fatal("NL rebuilt from a v1 file differs from a fresh build")
	}
	if _, out, err := LoadOrBuildNL(path, g, NLOptions{H: 2}); err != nil || !out.Loaded {
		t.Fatalf("NL after re-save: out=%+v err=%v", out, err)
	}

	freshX, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	path = legacyFile(nlrnlLegacyMagic, freshX.writeBody)
	x, out, err := LoadOrBuildNLRNL(path, g, NLRNLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkRebuilt("NLRNL", path, out)
	if !reflect.DeepEqual(x.comp, freshX.comp) || !reflect.DeepEqual(x.c, freshX.c) ||
		!sameLists(x.fwd, freshX.fwd) || !sameLists(x.rev, freshX.rev) {
		t.Fatal("NLRNL rebuilt from a v1 file differs from a fresh build")
	}
	if _, out, err := LoadOrBuildNLRNL(path, g, NLRNLOptions{}); err != nil || !out.Loaded {
		t.Fatalf("NLRNL after re-save: out=%+v err=%v", out, err)
	}

	if got := mSnapRebuildCorrupt.Value() - corruptBefore; got != 0 {
		t.Errorf("v1 files bumped the corrupt-rebuild counter by %d", got)
	}
	if got := mSnapRebuildVersion.Value() - versionBefore; got != 2 {
		t.Errorf("version-rebuild counter rose by %d, want 2", got)
	}
}

// TestV2TrailingBytesRejected covers the container path: even a valid
// container followed by garbage must fail.
func TestV2TrailingBytesRejected(t *testing.T) {
	g := fixture()
	nl, err := BuildNL(g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadNL(bytes.NewReader(append(buf.Bytes(), 'x')), g); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("v2 trailing byte: err = %v, want ErrCorrupt", err)
	}
}

// TestV2RoundTripEquality asserts byte-level persistence reproduces the
// in-memory structures exactly, not just equivalent query answers.
func TestV2RoundTripEquality(t *testing.T) {
	g := fixture()
	nl, err := BuildNL(g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadNL(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.h != nl.h || !sameLists(loaded.levels, nl.levels) {
		t.Fatal("NL round trip altered the index")
	}

	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	lx, err := ReadNLRNL(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lx.comp, x.comp) || !reflect.DeepEqual(lx.c, x.c) ||
		!sameLists(lx.fwd, x.fwd) || !sameLists(lx.rev, x.rev) {
		t.Fatal("NLRNL round trip altered the index")
	}
}

// sameLists compares level-list families by value, treating nil and
// empty slices as equal: the builder produces both (scratch reuse vs
// fresh allocation) and the wire format only records counts, so the
// distinction is not meaningful persistence state.
func sameLists(a, b [][][]graph.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if len(a[i][j]) != len(b[i][j]) {
				return false
			}
			for k := range a[i][j] {
				if a[i][j][k] != b[i][j][k] {
					return false
				}
			}
		}
	}
	return true
}

func snapPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "index.snap")
}

func TestLoadOrBuildNLMissing(t *testing.T) {
	g := fixture()
	path := snapPath(t)
	nl, out, err := LoadOrBuildNL(path, g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Loaded || out.Reason != ReasonMissing || !out.Saved {
		t.Fatalf("outcome = %+v, want rebuild(missing) + saved", out)
	}
	if nl.H() != 2 {
		t.Fatalf("h = %d", nl.H())
	}
	// The re-saved snapshot must satisfy the next startup.
	nl2, out2, err := LoadOrBuildNL(path, g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Loaded || out2.Reason != ReasonLoaded {
		t.Fatalf("second outcome = %+v, want loaded", out2)
	}
	if !sameLists(nl2.levels, nl.levels) {
		t.Fatal("re-saved snapshot loads differently")
	}
}

func TestLoadOrBuildNLCorrupt(t *testing.T) {
	g := fixture()
	path := snapPath(t)
	if _, _, err := LoadOrBuildNL(path, g, NLOptions{H: 2}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, out, err := LoadOrBuildNL(path, g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Loaded || out.Reason != ReasonCorrupt || !out.Saved {
		t.Fatalf("outcome = %+v, want rebuild(corrupt) + saved", out)
	}
	// The healed snapshot loads cleanly again.
	if _, out, err = LoadOrBuildNL(path, g, NLOptions{H: 2}); err != nil || !out.Loaded {
		t.Fatalf("after heal: out=%+v err=%v", out, err)
	}
}

func TestLoadOrBuildNLVersionSkew(t *testing.T) {
	g := fixture()
	path := snapPath(t)
	// A structurally sound container from a future format revision.
	err := persist.WriteFileAtomic(path, func(w io.Writer) error {
		pw, err := persist.NewWriter(w, persist.Header{
			Version: persist.FormatVersion + 7,
			Kind:    "nl",
			Graph:   persist.FingerprintOf(g),
		})
		if err != nil {
			return err
		}
		if err := pw.Section("levels", func(sw io.Writer) error {
			_, err := sw.Write([]byte("future payload"))
			return err
		}); err != nil {
			return err
		}
		return pw.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := LoadOrBuildNL(path, g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Loaded || out.Reason != ReasonVersion {
		t.Fatalf("outcome = %+v, want rebuild(version)", out)
	}
	if !errors.Is(out.LoadErr, persist.ErrVersionSkew) {
		t.Fatalf("LoadErr = %v, want ErrVersionSkew", out.LoadErr)
	}
}

func TestLoadOrBuildNLFingerprintMismatch(t *testing.T) {
	g := fixture()
	other := graph.FromEdges(g.NumVertices(), [][2]graph.Vertex{{0, 1}, {2, 3}})
	path := snapPath(t)
	if _, _, err := LoadOrBuildNL(path, other, NLOptions{H: 2}); err != nil {
		t.Fatal(err)
	}
	_, out, err := LoadOrBuildNL(path, g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Loaded || out.Reason != ReasonFingerprint {
		t.Fatalf("outcome = %+v, want rebuild(fingerprint)", out)
	}
	if !errors.Is(out.LoadErr, persist.ErrFingerprintMismatch) {
		t.Fatalf("LoadErr = %v, want ErrFingerprintMismatch", out.LoadErr)
	}
}

func TestLoadOrBuildNLParamMismatch(t *testing.T) {
	g := fixture()
	path := snapPath(t)
	if _, _, err := LoadOrBuildNL(path, g, NLOptions{H: 2}); err != nil {
		t.Fatal(err)
	}
	nl, out, err := LoadOrBuildNL(path, g, NLOptions{H: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Loaded || out.Reason != ReasonParam {
		t.Fatalf("outcome = %+v, want rebuild(param)", out)
	}
	if nl.H() != 3 {
		t.Fatalf("rebuilt h = %d, want 3", nl.H())
	}
	// The re-save replaced the h=2 snapshot, so h=3 now loads.
	if _, out, err := LoadOrBuildNL(path, g, NLOptions{H: 3}); err != nil || !out.Loaded {
		t.Fatalf("after re-save: out=%+v err=%v", out, err)
	}
}

func TestLoadOrBuildNLSaveFailureNonFatal(t *testing.T) {
	g := fixture()
	path := filepath.Join(t.TempDir(), "no-such-dir", "index.snap")
	nl, out, err := LoadOrBuildNL(path, g, NLOptions{H: 2})
	if err != nil {
		t.Fatalf("rebuild must survive a failed re-save: %v", err)
	}
	if nl == nil || out.Saved || out.SaveErr == nil {
		t.Fatalf("outcome = %+v, want usable index + SaveErr", out)
	}
}

func TestLoadOrBuildNLRNL(t *testing.T) {
	g := fixture()
	path := snapPath(t)
	x, out, err := LoadOrBuildNLRNL(path, g, NLRNLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Loaded || out.Reason != ReasonMissing || !out.Saved {
		t.Fatalf("outcome = %+v, want rebuild(missing) + saved", out)
	}
	x2, out2, err := LoadOrBuildNLRNL(path, g, NLRNLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Loaded {
		t.Fatalf("second outcome = %+v, want loaded", out2)
	}
	if !sameLists(x2.fwd, x.fwd) || !sameLists(x2.rev, x.rev) {
		t.Fatal("re-saved NLRNL snapshot loads differently")
	}
}
