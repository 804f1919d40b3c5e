package interval

// Edit describes an update of a relation as one row-range replacement:
// rows [At, At+Removed) of the old relation become rows [At, At+Inserted)
// of the new one. Rows before At keep their positions; rows from
// At+Removed on move by Delta. Every structural update of package update
// is one such replacement, and a document's structural index, with the
// statistics annotated on its dataguide, is patched from it (index.Splice)
// instead of being rebuilt.
type Edit struct {
	At, Removed, Inserted int
}

// Delta is the row shift the edit applies to every row after it.
func (e Edit) Delta() int { return e.Inserted - e.Removed }
