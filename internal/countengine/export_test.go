package countengine

// PairMatrix reports whether the engine counts its pairs in a pair matrix
// rather than by the column kernel.
func (e *bitsetEngine) PairMatrix() bool { return e.pairs != nil }

// PoisonRows turns on the row pool's poison seam for the external tests:
// every row handed back to the pool is filled with ones first, so an engine
// that still reads it counts garbage.  It returns a func that turns the seam
// off.  It is a method of the builder because checkinv type-checks the
// external tests against the non-test sources, where it does not exist: the
// tests reach it through an interface assertion.
func (b *bitsetBuilder) PoisonRows() (restore func()) {
	rowPoison = func(r *row) {
		for c := range *r {
			for w := range (*r)[c] {
				(*r)[c][w] = ^uint64(0)
			}
		}
	}
	return func() { rowPoison = nil }
}
