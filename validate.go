package parapriori

import (
	"fmt"

	"parapriori/internal/apriori"
	"parapriori/internal/rules"
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

// asOptionError names strct in the *apriori.FieldError a parameter validator
// returned; the validators return nothing else.
func asOptionError(strct string, err error) error {
	if fe, ok := err.(*apriori.FieldError); ok {
		return &OptionError{Struct: strct, Field: fe.Field, Reason: fe.Reason}
	}
	return err
}

// Validate checks the options for serial mining.  It returns nil or a
// *OptionError naming the first offending field.
func (o MineOptions) Validate() error {
	return asOptionError("MineOptions", o.params().Validate())
}

// Validate checks the options for a parallel mining run.  It returns nil
// or a *OptionError naming the first offending field — including the
// MineOptions knob only the serial miner honors (DHPBuckets), which
// MineParallel previously ignored without comment.  The mining options are
// checked by the core that honours them; only the Backend spelling and the
// store it requires are checked here.
func (o ParallelOptions) Validate() error {
	const strct = "ParallelOptions"
	streamed := o.Backend == "ooc"
	if err := o.coreParams().Validate(streamed); err != nil {
		return asOptionError(strct, err)
	}
	if !streamed && o.Backend != "" && o.Backend != "inmem" {
		return optErr(strct, "Backend", "unknown backend %q (want inmem or ooc)", o.Backend)
	}
	if streamed {
		if o.Source == nil {
			return optErr(strct, "Source", "the ooc backend mines a PartitionedDataset; set Source to one (OpenPartitionedDataset / WritePartitionedDataset)")
		}
		if _, ok := o.Source.(*PartitionedDataset); !ok {
			return optErr(strct, "Source", "the ooc backend requires a *PartitionedDataset source, not %T", o.Source)
		}
	}
	return nil
}

// Validate checks the options for parallel rule generation.
func (o RuleGenOptions) Validate() error {
	const strct = "RuleGenOptions"
	if o.Procs < 1 {
		return optErr(strct, "Procs", "must be at least 1 (got %d)", o.Procs)
	}
	return asOptionError(strct, rules.Params{MinConfidence: o.MinConfidence}.Validate())
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
