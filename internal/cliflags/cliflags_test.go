package cliflags

import (
	"flag"
	"fmt"
	"io"
	"testing"

	"repro"
)

// TestSizeFlagsBounded checks that -parallel outside 1..repro.MaxParallelism
// is a flag error on every option mapping, before any worker pool is
// allocated, that the bounds themselves are accepted, and that -partitions is
// no longer a flag.
func TestSizeFlagsBounded(t *testing.T) {
	max := repro.MaxParallelism
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
		if err := fs.Parse([]string{fmt.Sprintf("-parallel=%d", tc.value)}); err != nil {
			t.Fatal(err)
		}
		opts, errOpts := f.Options(repro.ModeChase)
		_, errEval := f.EvalOptions()
		if (errOpts == nil) != tc.ok || (errEval == nil) != tc.ok {
			t.Errorf("-parallel=%d: Options err=%v, EvalOptions err=%v, want accepted=%v",
				tc.value, errOpts, errEval, tc.ok)
		}
		if tc.ok && opts.Parallelism != tc.value {
			t.Errorf("-parallel=%d mapped to %d", tc.value, opts.Parallelism)
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Bind(fs)
	if err := fs.Parse([]string{"-partitions=4"}); err == nil {
		t.Error("-partitions must be an unknown flag")
	}
}
