package index

import "testing"

func TestBuildNLRNLWithoutOptionsStillWorks(t *testing.T) {
	g := fixture()
	a, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildNLRNLWith(g, NLRNLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Entries() != b.Entries() {
		t.Errorf("BuildNLRNL and BuildNLRNLWith disagree: %d vs %d entries", a.Entries(), b.Entries())
	}
}
