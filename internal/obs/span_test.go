package obs

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// testStore returns a fresh keep-everything store and a context routing
// spans to it, keeping tests off the process-default store.
func testStore(t *testing.T) (*TraceStore, context.Context) {
	t.Helper()
	ts := NewTraceStore(TraceStoreConfig{})
	return ts, ContextWithTraceStore(context.Background(), ts)
}

func TestSpanFragmentFlushesOnRootEnd(t *testing.T) {
	ts, ctx := testStore(t)

	ctx, root := StartSpan(ctx, "root")
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.End()
	child.End()
	if ts.Len() != 0 {
		t.Fatalf("store holds %d traces before the root ended", ts.Len())
	}
	root.AddCompletedChild("phase", time.Now().Add(-time.Millisecond), time.Millisecond,
		Attr{Key: "n", Value: "3"})
	root.End()

	tr := ts.Get(root.TraceID())
	if tr == nil {
		t.Fatalf("trace %s not stored after root end", root.TraceID())
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("stored %d spans, want 4 (root, child, grandchild, phase)", len(tr.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range tr.Spans {
		byName[s.Name] = s
		if s.TraceID != root.TraceID() {
			t.Fatalf("span %q has trace ID %s, want %s", s.Name, s.TraceID, root.TraceID())
		}
	}
	rootSD := byName["root"]
	if rootSD.ParentID != "" {
		t.Fatalf("root has parent %q", rootSD.ParentID)
	}
	if byName["child"].ParentID != rootSD.SpanID {
		t.Fatal("child not parented to root")
	}
	if byName["grandchild"].ParentID != byName["child"].SpanID {
		t.Fatal("grandchild not parented to child")
	}
	if p := byName["phase"]; p.ParentID != rootSD.SpanID || len(p.Attrs) != 1 || p.Attrs[0].Value != "3" {
		t.Fatalf("AddCompletedChild span wrong: %+v", p)
	}
	if got := tr.Root(); got == nil || got.Name != "root" {
		t.Fatalf("Root() = %+v, want the root span", got)
	}
}

func TestSpanEndedAfterFlushStillStored(t *testing.T) {
	ts, ctx := testStore(t)
	ctx, root := StartSpan(ctx, "root")
	_, straggler := StartSpan(ctx, "straggler")
	root.End()
	if tr := ts.Get(root.TraceID()); len(tr.Spans) != 1 {
		t.Fatalf("pre-straggler trace has %d spans, want 1", len(tr.Spans))
	}
	straggler.End()
	tr := ts.Get(root.TraceID())
	if len(tr.Spans) != 2 {
		t.Fatalf("straggler fragment not merged: %d spans", len(tr.Spans))
	}
}

func TestStartSpanWithRemoteParent(t *testing.T) {
	ts, ctx := testStore(t)
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	ctx = ContextWithRemote(ctx, remote)
	_, sp := StartSpan(ctx, "server /v1/query")
	if sp.TraceID() != remote.TraceID.String() {
		t.Fatalf("local root trace = %s, want remote trace %s", sp.TraceID(), remote.TraceID)
	}
	sp.End()
	tr := ts.Get(sp.TraceID())
	if tr == nil || len(tr.Spans) != 1 {
		t.Fatal("remote-rooted fragment not stored")
	}
	sd := tr.Spans[0]
	if sd.ParentID != remote.SpanID.String() || !sd.RemoteParent {
		t.Fatalf("local root should carry the remote parent: %+v", sd)
	}
}

func TestStartChildWithoutActiveSpanIsNil(t *testing.T) {
	ctx, sp := StartChild(context.Background(), "library work")
	if sp != nil {
		t.Fatal("StartChild with no active span must return nil")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("ctx gained a span")
	}
	// Every method must be a no-op on nil — instrumented library code
	// runs unconditionally.
	sp.SetAttr("k", "v")
	sp.Event("e", 1)
	sp.SetError("boom")
	sp.SetStatus(StatusOK, "")
	sp.AddCompletedChild("phase", time.Now(), time.Millisecond)
	sp.End()
	if id := sp.TraceID(); id != "" {
		t.Fatalf("nil span TraceID = %q", id)
	}
}

func TestSpanEventCapCountsDrops(t *testing.T) {
	ts, ctx := testStore(t)
	_, sp := StartSpan(ctx, "hot")
	for i := 0; i < maxSpanEvents+10; i++ {
		sp.Event(fmt.Sprintf("e%d", i), int64(i))
	}
	sp.End()
	sd := ts.Get(sp.TraceID()).Spans[0]
	if len(sd.Events) != maxSpanEvents {
		t.Fatalf("stored %d events, want cap %d", len(sd.Events), maxSpanEvents)
	}
	if sd.EventsDropped != 10 {
		t.Fatalf("EventsDropped = %d, want 10", sd.EventsDropped)
	}
}

func TestSpanEndIsFirstWins(t *testing.T) {
	ts, ctx := testStore(t)
	_, sp := StartSpan(ctx, "once")
	sp.End()
	sp.SetError("after end")
	sp.End()
	tr := ts.Get(sp.TraceID())
	if len(tr.Spans) != 1 {
		t.Fatalf("double End stored %d spans", len(tr.Spans))
	}
	if tr.Spans[0].Status == StatusError {
		t.Fatal("mutation after End leaked into the stored span")
	}
}
