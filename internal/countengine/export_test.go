package countengine

// PairMatrix reports whether the engine counts its pairs in a pair matrix
// rather than by the column kernel.
func (e *bitsetEngine) PairMatrix() bool { return e.pairs != nil }
