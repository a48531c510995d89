package core

import (
	"jash/internal/interp"
	"jash/internal/syntax"
)

// StaticNameVerdict exposes the static command-name check to the property
// test in package core_test, which drives internal/fuzz (an importer of
// core). ok is false for pipelines the syntactic checks refuse; otherwise
// declined is the static name verdict and admitted whether the analysis
// that reads shell state accepts the pipeline under in's live state.
func (s *Shell) StaticNameVerdict(in *interp.Interp, pl *syntax.Pipeline) (ok, declined, admitted bool) {
	if ineligibleShape(pl) {
		return false, false, false
	}
	_, _, admitted = s.analyzeDynamic(in, pl, false)
	return true, s.unknownStaticName(pl), admitted
}
