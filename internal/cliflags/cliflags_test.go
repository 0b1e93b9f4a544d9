package cliflags

import (
	"flag"
	"fmt"
	"io"
	"testing"

	"repro"
)

// TestPartitionsFlagBounded checks that -partitions outside
// 1..repro.MaxPartitions is a flag error on both option mappings, before any
// store is allocated, and that the bounds themselves are accepted.
func TestPartitionsFlagBounded(t *testing.T) {
	for _, tc := range []struct {
		value int
		ok    bool
	}{
		{1, true}, {repro.MaxPartitions, true},
		{0, false}, {-3, false}, {repro.MaxPartitions + 1, false}, {2000000000, false},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := Bind(fs)
		if err := fs.Parse([]string{fmt.Sprintf("-partitions=%d", tc.value)}); err != nil {
			t.Fatal(err)
		}
		opts, errOpts := f.Options(repro.ModeChase)
		copts, errChase := f.ChaseOptions()
		if (errOpts == nil) != tc.ok || (errChase == nil) != tc.ok {
			t.Errorf("-partitions=%d: Options err=%v, ChaseOptions err=%v, want accepted=%v", tc.value, errOpts, errChase, tc.ok)
		}
		if tc.ok && (opts.Partitions != tc.value || copts.Partitions != tc.value) {
			t.Errorf("-partitions=%d mapped to %d / %d", tc.value, opts.Partitions, copts.Partitions)
		}
	}
}
