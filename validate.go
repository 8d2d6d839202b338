package parapriori

import (
	"fmt"

	"parapriori/internal/core"
	"parapriori/internal/countengine"
)

// OptionError reports an invalid or contradictory field in an options
// struct.  Mine, MineParallel and GenerateRulesOn validate before running,
// so misconfigurations surface as one named field error instead of a deep
// failure — or, worse, a silently ignored knob — later.
type OptionError struct {
	// Struct is the options type the field belongs to, e.g. "ParallelOptions".
	Struct string
	// Field is the offending field name.
	Field string
	// Reason says what is wrong with the value.
	Reason string
}

// Error implements the error interface.
func (e *OptionError) Error() string {
	return fmt.Sprintf("parapriori: %s.%s: %s", e.Struct, e.Field, e.Reason)
}

func optErr(strct, field, format string, args ...any) *OptionError {
	return &OptionError{Struct: strct, Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks the options for serial mining.  It returns nil or a
// *OptionError naming the first offending field.
func (o MineOptions) Validate() error {
	return o.validate("MineOptions", true)
}

// validate implements Validate for both the serial and the embedded-in-
// ParallelOptions case; serial reports whether the serial-only DHPBuckets is
// legal at all.
func (o MineOptions) validate(strct string, serial bool) error {
	if o.MinSupport <= 0 || o.MinSupport > 1 {
		return optErr(strct, "MinSupport", "%v outside (0, 1]", o.MinSupport)
	}
	if o.HashTreeFanout < 0 {
		return optErr(strct, "HashTreeFanout", "negative (%d)", o.HashTreeFanout)
	}
	if err := o.params().Tree.Validate(); err != nil {
		return optErr(strct, "HashTreeFanout", "%v", err)
	}
	if o.MaxLeafSize < 0 {
		return optErr(strct, "MaxLeafSize", "negative (%d)", o.MaxLeafSize)
	}
	if o.MaxPasses < 0 {
		return optErr(strct, "MaxPasses", "negative (%d)", o.MaxPasses)
	}
	if o.DHPBuckets < 0 {
		return optErr(strct, "DHPBuckets", "negative (%d)", o.DHPBuckets)
	}
	if !serial && o.DHPBuckets > 0 {
		// The pair filter has no parallel form yet (PDM).
		return optErr(strct, "DHPBuckets", "DHP filtering is serial mining only")
	}
	if !countengine.Known(o.Engine) {
		return optErr(strct, "Engine", "unknown engine %q (want one of %v)", o.Engine, countengine.Names())
	}
	return nil
}

// Validate checks the options for a parallel mining run.  It returns nil
// or a *OptionError naming the first offending field — including the
// MineOptions knob only the serial miner honors (DHPBuckets), which
// MineParallel previously ignored without comment.
func (o ParallelOptions) Validate() error {
	const strct = "ParallelOptions"
	if err := o.MineOptions.validate(strct, false); err != nil {
		return err
	}
	if o.Procs < 1 {
		return optErr(strct, "Procs", "must be at least 1 (got %d)", o.Procs)
	}
	if _, err := core.ParseAlgorithm(string(o.Algorithm)); err != nil {
		return optErr(strct, "Algorithm", "unknown algorithm %q (want cd, dd, ddcomm, idd, hd or hpa)", string(o.Algorithm))
	}
	if o.HDThreshold < 0 {
		return optErr(strct, "HDThreshold", "negative (%d)", o.HDThreshold)
	}
	if o.FixedG < 0 {
		return optErr(strct, "FixedG", "negative (%d)", o.FixedG)
	}
	if o.FixedG > 0 && o.Procs%o.FixedG != 0 {
		return optErr(strct, "FixedG", "%d does not divide Procs %d", o.FixedG, o.Procs)
	}
	backend, err := core.ParseBackend(o.Backend)
	if err != nil {
		return optErr(strct, "Backend", "unknown backend %q (want inmem or ooc)", o.Backend)
	}
	if backend == core.BackendOOC {
		if o.Source == nil {
			return optErr(strct, "Source", "the ooc backend mines a PartitionedDataset; set Source to one (OpenPartitionedDataset / WritePartitionedDataset)")
		}
		if _, ok := o.Source.(*PartitionedDataset); !ok {
			return optErr(strct, "Source", "the ooc backend requires a *PartitionedDataset source, not %T", o.Source)
		}
	}
	// The algorithm × feature combinations no code path honours are listed
	// once, in core; the fields carry the same names here.
	if field, reason := o.coreParams(backend).Hole(); field != "" {
		return optErr(strct, field, "%s", reason)
	}
	return nil
}

// Validate checks the options for parallel rule generation.
func (o RuleGenOptions) Validate() error {
	const strct = "RuleGenOptions"
	if o.Procs < 1 {
		return optErr(strct, "Procs", "must be at least 1 (got %d)", o.Procs)
	}
	if o.MinConfidence < 0 || o.MinConfidence > 1 {
		return optErr(strct, "MinConfidence", "%v outside [0, 1]", o.MinConfidence)
	}
	return nil
}

// Validate checks the serving options.  Zero values mean "use the default"
// throughout and are always valid; only contradictions are errors.
func (o ServeOptions) Validate() error {
	const strct = "ServeOptions"
	if o.Workers < 0 {
		return optErr(strct, "Workers", "negative (%d); zero means inline execution", o.Workers)
	}
	return nil
}
