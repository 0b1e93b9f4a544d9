package cliflags

import (
	"flag"
	"io"
	"testing"
)

// TestRemovedFlagsUnknown checks that the flags of deleted mechanisms are
// flag errors: -partitions (the hash-partitioned store) and -parallel (the
// parallel chase).
func TestRemovedFlagsUnknown(t *testing.T) {
	for _, arg := range []string{"-partitions=4", "-parallel=4"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Bind(fs)
		if err := fs.Parse([]string{arg}); err == nil {
			t.Errorf("%s must be an unknown flag", arg)
		}
	}
}
