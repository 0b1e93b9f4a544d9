package repro

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// TestMain lets the harness rerun the whole suite over hash-partitioned
// materializations: `PART=4 go test .` flips the package default partition
// count, which every call that leaves Options.Partitions zero inherits
// (second leg of `make test`).
func TestMain(m *testing.M) {
	if s := os.Getenv("PART"); s != "" {
		p, err := strconv.Atoi(s)
		if err != nil || p < 1 {
			fmt.Fprintf(os.Stderr, "bad PART %q (want a positive partition count)\n", s)
			os.Exit(2)
		}
		defaultPartitions = p
	}
	os.Exit(m.Run())
}
