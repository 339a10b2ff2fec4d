package index

import (
	"bytes"
	"reflect"
	"testing"

	"ktg/internal/persist"
)

// FuzzReadNLRNL hardens the index loader: any accepted input must
// decode to exactly the index that was saved (the container's checksums
// make accept-but-different a CRC collision), and everything else must
// be rejected without panicking. The bare legacy and container magics
// must be rejected.
func FuzzReadNLRNL(f *testing.F) {
	g := fixture()
	x, err := BuildNLRNL(g)
	if err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := x.Save(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:snap.Len()/2])
	f.Add([]byte{})
	f.Add([]byte(nlrnlLegacyMagic))
	f.Add([]byte(persist.Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := ReadNLRNL(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		if !reflect.DeepEqual(loaded.comp, x.comp) || !reflect.DeepEqual(loaded.c, x.c) ||
			!sameLists(loaded.fwd, x.fwd) || !sameLists(loaded.rev, x.rev) {
			t.Fatal("accepted input decodes to a different index")
		}
	})
}

// FuzzReadNL mirrors FuzzReadNLRNL for the NL format.
func FuzzReadNL(f *testing.F) {
	g := fixture()
	nl, err := BuildNL(g, NLOptions{H: 2})
	if err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := nl.Save(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:snap.Len()/2])
	f.Add([]byte(nlLegacyMagic + "junk"))
	f.Add([]byte(persist.Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := ReadNL(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		if loaded.H() != nl.H() || !sameLists(loaded.levels, nl.levels) {
			t.Fatal("accepted input decodes to a different index")
		}
	})
}
