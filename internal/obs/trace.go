package obs

import "time"

// Phase names of the search core. Search and Greedy attach one
// completed child span per phase to the trace span carried by their
// context (see SpanFromContext), and the query server's flight recorder
// labels a request's phase timings with them.
const (
	// PhaseCompile covers query keyword compilation.
	PhaseCompile = "compile"
	// PhaseCandidates covers the initial candidate-set (S_R) build.
	PhaseCandidates = "candidates"
	// PhaseExplore covers the branch-and-bound exploration.
	PhaseExplore = "explore"
)

// SpanRecord is one phase and its wall-clock duration. The JSON tags
// are stable: flight-recorder records embed spans verbatim.
type SpanRecord struct {
	Phase    string        `json:"phase"`
	Duration time.Duration `json:"duration_ns"`
}
