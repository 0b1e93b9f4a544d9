// Package cliflags is the one flag surface shared by every command in
// cmd/: the engine knobs (-parallel, -max-steps, -max-rounds),
// the answer bound (-limit, opt-in via BindLimit) and the deadline
// (-timeout) are declared once here, so answer, chase, rewrite, classify,
// graphs and serve agree on names, defaults and help text instead of each
// redeclaring a drifting subset.
//
// -limit=N streams only the first N distinct answers and stops the executor
// early — the cost is proportional to N, not to the full result.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/chase"
	"repro/internal/eval"
)

// Flags holds the parsed shared flag values.
type Flags struct {
	// Parallel is the chase worker count, 1..repro.MaxParallelism (1 =
	// sequential). Query evaluation is always sequential.
	Parallel int
	// MaxSteps bounds chase trigger firings (0 = engine default).
	MaxSteps int
	// MaxRounds bounds chase fair rounds (0 = engine default).
	MaxRounds int
	// Limit bounds the number of answers streamed (0 = all); registered
	// separately by BindLimit, only on the commands that answer queries.
	Limit int
	// CacheBytes is the answer-view cache budget; registered separately by
	// BindCache on the commands that answer repeatedly (answer, serve).
	CacheBytes int64
	// Timeout bounds the whole operation; 0 means no deadline.
	Timeout time.Duration
}

// Bind registers the full shared surface on fs (flag.CommandLine in the
// commands): -parallel, -max-steps, -max-rounds and -timeout.
func Bind(fs *flag.FlagSet) *Flags {
	f := BindTimeout(fs)
	fs.IntVar(&f.Parallel, "parallel", 1, fmt.Sprintf("chase worker count (1 = sequential, max %d); query evaluation is sequential", repro.MaxParallelism))
	fs.IntVar(&f.MaxSteps, "max-steps", 0, "chase trigger-firing budget (0 = default 100000)")
	fs.IntVar(&f.MaxRounds, "max-rounds", 0, "chase fair-round budget (0 = default 1000)")
	return f
}

// BindLimit additionally registers -limit, for the commands that answer
// queries: only the first N distinct answers are produced, and the executor
// stops as soon as the bound is reached.
func (f *Flags) BindLimit(fs *flag.FlagSet) {
	fs.IntVar(&f.Limit, "limit", 0, "stop after this many distinct answers (0 = all)")
}

// BindCache additionally registers -cache, for the commands that answer
// the same query repeatedly: a positive byte budget keeps completed answer
// sets cached (and incrementally maintained across fact insertions), so a
// repeat answer is a lock-free lookup instead of a re-evaluation.
func (f *Flags) BindCache(fs *flag.FlagSet, def int64) {
	fs.Int64Var(&f.CacheBytes, "cache", def, "answer-view cache budget in bytes (0 = disabled)")
}

// BindTimeout registers only -timeout, for commands with no engine knobs.
func BindTimeout(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.DurationVar(&f.Timeout, "timeout", 0, "abort the operation after this duration, e.g. 500ms (0 = no deadline)")
	return f
}

// check rejects -parallel outside 1..repro.MaxParallelism: every worker is
// an allocation the command line controls.
func (f *Flags) check() error {
	if f.Parallel < 1 || f.Parallel > repro.MaxParallelism {
		return fmt.Errorf("bad -parallel %d: want 1..%d", f.Parallel, repro.MaxParallelism)
	}
	return nil
}

// Options maps the shared flags onto the root answering options.
func (f *Flags) Options(mode repro.AnswerMode) (repro.Options, error) {
	return repro.Options{
		Mode:        mode,
		Parallelism: f.Parallel,
		MaxSteps:    f.MaxSteps,
		MaxRounds:   f.MaxRounds,
		Limit:       f.Limit,
	}, f.check()
}

// ChaseOptions maps the shared flags onto a chase engine configuration.
func (f *Flags) ChaseOptions() (chase.Options, error) {
	return chase.Options{
		MaxSteps:    f.MaxSteps,
		MaxRounds:   f.MaxRounds,
		Parallelism: f.Parallel,
	}, f.check()
}

// EvalOptions maps the shared flags onto query-evaluation options.
func (f *Flags) EvalOptions() (eval.Options, error) {
	return eval.Options{FilterNulls: true, Limit: f.Limit}, f.check()
}

// Context arms the -timeout deadline: with a zero timeout it returns the
// background context and a no-op cancel.
func (f *Flags) Context() (context.Context, context.CancelFunc) {
	if f.Timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), f.Timeout)
}

// RunTimeout honors -timeout for operations that expose no context hook
// (classification, graph construction): fn runs in a goroutine and the call
// returns context.DeadlineExceeded when the deadline fires first. The
// goroutine is not reclaimed on timeout — callers are CLIs that exit
// immediately after, which is exactly why library code should take a ctx
// instead.
func (f *Flags) RunTimeout(fn func() error) error {
	if f.Timeout <= 0 {
		return fn()
	}
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(f.Timeout):
		return fmt.Errorf("aborted after %v: %w", f.Timeout, context.DeadlineExceeded)
	}
}

// ParseMode parses a -mode flag value.
func ParseMode(s string) (repro.AnswerMode, error) {
	switch s {
	case "auto":
		return repro.ModeAuto, nil
	case "rewrite":
		return repro.ModeRewrite, nil
	case "chase":
		return repro.ModeChase, nil
	default:
		return repro.ModeAuto, fmt.Errorf("unknown mode %q (want auto | rewrite | chase)", s)
	}
}

// Fatal prints the error and exits 1; the commands' shared failure path.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
