package index

// Postings exposes the label postings to the external tests, which compare
// a spliced index with a rebuilt one.
func Postings(ix *DocIndex) map[string][]int32 { return ix.postings }
