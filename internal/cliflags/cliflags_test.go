package cliflags

import (
	"flag"
	"fmt"
	"io"
	"testing"

	"repro"
)

// TestSizeFlagsBounded checks that -partitions outside 1..repro.MaxPartitions
// and -parallel outside 1..repro.MaxParallelism are a flag error on every
// option mapping, before any store or worker pool is allocated, and that the
// bounds themselves are accepted.
func TestSizeFlagsBounded(t *testing.T) {
	for flagName, max := range map[string]int{"partitions": repro.MaxPartitions, "parallel": repro.MaxParallelism} {
		for _, tc := range []struct {
			value int
			ok    bool
		}{
			{1, true}, {max, true},
			{0, false}, {-3, false}, {max + 1, false}, {2000000000, false},
		} {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := Bind(fs)
			if err := fs.Parse([]string{fmt.Sprintf("-%s=%d", flagName, tc.value)}); err != nil {
				t.Fatal(err)
			}
			opts, errOpts := f.Options(repro.ModeChase)
			copts, errChase := f.ChaseOptions()
			_, errEval := f.EvalOptions()
			if (errOpts == nil) != tc.ok || (errChase == nil) != tc.ok || (errEval == nil) != tc.ok {
				t.Errorf("-%s=%d: Options err=%v, ChaseOptions err=%v, EvalOptions err=%v, want accepted=%v",
					flagName, tc.value, errOpts, errChase, errEval, tc.ok)
			}
			got, gotChase := opts.Partitions, copts.Partitions
			if flagName == "parallel" {
				got, gotChase = opts.Parallelism, copts.Parallelism
			}
			if tc.ok && (got != tc.value || gotChase != tc.value) {
				t.Errorf("-%s=%d mapped to %d / %d", flagName, tc.value, got, gotChase)
			}
		}
	}
}
