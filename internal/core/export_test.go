package core

// SubtreeFilters exposes Verify's subtree ORs to the external tests.
var SubtreeFilters = subtreeFilters
