package allocation

// CheckSearchMemo turns on c's search-memo oracle (CRAM.checkSearchMemo) for
// the external tests.
func CheckSearchMemo(c *CRAM) { c.checkSearchMemo = true }
