package index

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"ktg/internal/graph"
	"ktg/internal/obs"
	"ktg/internal/persist"
)

// Rebuild reasons reported in LoadOutcome.Reason and on the snapshot
// metrics when a LoadOrBuild call cannot use the on-disk snapshot.
const (
	ReasonLoaded      = "loaded"      // snapshot used as-is, no rebuild
	ReasonMissing     = "missing"     // no snapshot at the path
	ReasonVersion     = "version"     // container format version unsupported
	ReasonFingerprint = "fingerprint" // snapshot built for a different graph
	ReasonParam       = "param"       // snapshot built with different parameters
	ReasonCorrupt     = "corrupt"     // checksum/framing/payload validation failed
)

// LoadOutcome reports how a LoadOrBuild call obtained its index.
type LoadOutcome struct {
	// Loaded is true when the on-disk snapshot was used unchanged.
	Loaded bool
	// Reason is ReasonLoaded on success, otherwise the rebuild cause.
	Reason string
	// LoadErr is the error that disqualified the snapshot (nil when
	// Loaded or Reason is ReasonMissing with a plain missing file).
	LoadErr error
	// Saved is true when the rebuilt index was re-persisted to the path.
	Saved bool
	// SaveErr holds the (non-fatal) re-save failure, if any.
	SaveErr error
}

// classifyLoadError maps a snapshot load failure to a rebuild reason.
func classifyLoadError(err error) string {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return ReasonMissing
	case errors.Is(err, errParamMismatch):
		return ReasonParam
	case errors.Is(err, persist.ErrVersionSkew):
		return ReasonVersion
	case errors.Is(err, persist.ErrFingerprintMismatch):
		return ReasonFingerprint
	default:
		return ReasonCorrupt
	}
}

func snapshotRebuildCounter(reason string) *obs.Counter {
	switch reason {
	case ReasonMissing:
		return mSnapRebuildMissing
	case ReasonVersion:
		return mSnapRebuildVersion
	case ReasonFingerprint:
		return mSnapRebuildFingerprint
	case ReasonParam:
		return mSnapRebuildParam
	default:
		return mSnapRebuildCorrupt
	}
}

// tryLoad opens path and hands the file to load. The returned reason is
// ReasonLoaded on success.
func tryLoad(path string, load func(f *os.File) error) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return classifyLoadError(err), err
	}
	defer f.Close()
	if err := load(f); err != nil {
		return classifyLoadError(err), err
	}
	return ReasonLoaded, nil
}

// resave persists the rebuilt index crash-atomically; failure is
// recorded on the outcome and the metrics but never fails the call —
// the caller has a working index either way.
func resave(path string, save func(w io.Writer) error, out *LoadOutcome) {
	if err := persist.WriteFileAtomic(path, save); err != nil {
		out.SaveErr = fmt.Errorf("index: re-saving snapshot %s: %w", path, err)
		mSnapSaveErrors.Inc()
		return
	}
	out.Saved = true
	mSnapSaved.Inc()
}

// LoadOrBuildNL returns an NL index for g: from the snapshot at path if
// it is present, the current format version, fingerprint-matched to g,
// and (when opts.H > 0) built with the same h — otherwise by rebuilding
// with BuildNL and crash-atomically re-saving the fresh snapshot over
// path. Load failures never propagate: they select the rebuild path and
// are reported in the outcome and on the snapshot metrics. The only
// errors returned are rebuild errors.
func LoadOrBuildNL(path string, g graph.Topology, opts NLOptions) (*NL, LoadOutcome, error) {
	log := obs.Or(opts.Logger)
	var nl *NL
	reason, loadErr := tryLoad(path, func(f *os.File) error {
		loaded, err := ReadNL(f, g)
		if err != nil {
			return err
		}
		if opts.H > 0 && loaded.H() != opts.H {
			return fmt.Errorf("index: NL snapshot has h=%d, want h=%d: %w",
				loaded.H(), opts.H, errParamMismatch)
		}
		nl = loaded
		return nil
	})
	if reason == ReasonLoaded {
		mSnapLoads.Inc()
		log.Info("ktg: NL snapshot loaded", "path", path, "h", nl.H())
		return nl, LoadOutcome{Loaded: true, Reason: ReasonLoaded}, nil
	}

	out := LoadOutcome{Reason: reason, LoadErr: loadErr}
	snapshotRebuildCounter(reason).Inc()
	log.Warn("ktg: NL snapshot unusable, rebuilding",
		"path", path, "reason", reason, "err", loadErr)
	built, err := BuildNL(g, opts)
	if err != nil {
		return nil, out, err
	}
	resave(path, built.Save, &out)
	if out.SaveErr != nil {
		log.Warn("ktg: NL snapshot re-save failed", "path", path, "err", out.SaveErr)
	}
	return built, out, nil
}

// LoadOrBuildNLRNL is LoadOrBuildNL for the NLRNL index.
func LoadOrBuildNLRNL(path string, g graph.Topology, opts NLRNLOptions) (*NLRNL, LoadOutcome, error) {
	log := obs.Or(opts.Logger)
	var x *NLRNL
	reason, loadErr := tryLoad(path, func(f *os.File) error {
		loaded, err := ReadNLRNL(f, g)
		if err != nil {
			return err
		}
		x = loaded
		return nil
	})
	if reason == ReasonLoaded {
		mSnapLoads.Inc()
		log.Info("ktg: NLRNL snapshot loaded", "path", path)
		return x, LoadOutcome{Loaded: true, Reason: ReasonLoaded}, nil
	}

	out := LoadOutcome{Reason: reason, LoadErr: loadErr}
	snapshotRebuildCounter(reason).Inc()
	log.Warn("ktg: NLRNL snapshot unusable, rebuilding",
		"path", path, "reason", reason, "err", loadErr)
	built, err := BuildNLRNLWith(g, opts)
	if err != nil {
		return nil, out, err
	}
	resave(path, built.Save, &out)
	if out.SaveErr != nil {
		log.Warn("ktg: NLRNL snapshot re-save failed", "path", path, "err", out.SaveErr)
	}
	return built, out, nil
}

// errParamMismatch marks a structurally valid snapshot whose build
// parameters disagree with what the caller asked for.
var errParamMismatch = errors.New("snapshot parameter mismatch")
