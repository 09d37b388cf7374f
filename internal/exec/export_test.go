package exec

// The package's test helpers, exported to its external tests
// (conformance_test.go, which drives the exectest harness).
var (
	Tbl            = tbl
	ColRefOf       = colRef
	ShipdateFilter = shipdateFilter
	Partitions     = partitions
)
