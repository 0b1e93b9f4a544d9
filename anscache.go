package repro

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/eval"
	"repro/internal/query"
	"repro/internal/rescache"
	"repro/internal/storage"
)

// DefaultAnswerCacheBytes is the answer-view cache budget the server and
// the CLIs enable by default (their -cache flag). The library default is
// off — SetAnswerCacheBudget opts an Ontology in.
const DefaultAnswerCacheBytes = 32 << 20

// SetAnswerCacheBudget sets the answer-view cache byte budget. n <= 0
// disables the cache and drops any cached views; a positive budget bounds
// the estimated bytes of cached answer sets (least-recently-used views are
// evicted past it). Safe to call concurrently with answering.
func (o *Ontology) SetAnswerCacheBudget(n int64) {
	o.ansBudget.Store(n)
	if n <= 0 {
		o.snap.Load().views.Store(nil)
	}
}

// AnswerCacheStats counts answer-view cache activity since the Ontology
// was built. Entries and Bytes describe the current snapshot's views only —
// views a mutation did not carry forward stop counting at once.
type AnswerCacheStats struct {
	Hits            uint64
	Misses          uint64
	Evictions       uint64
	DeltaMaintained uint64
	Entries         int
	Bytes           int64
}

// AnswerCacheStats reports the answer-view cache counters. Lock-free.
func (o *Ontology) AnswerCacheStats() AnswerCacheStats {
	st := AnswerCacheStats{
		Hits:            o.ansStats.Hits.Load(),
		Misses:          o.ansStats.Misses.Load(),
		Evictions:       o.ansStats.Evictions.Load(),
		DeltaMaintained: o.ansStats.DeltaMaintained.Load(),
	}
	st.Entries, st.Bytes = o.snap.Load().views.Load().Usage()
	return st
}

// answerViewKey canonicalizes one answering request: the input query in
// renaming- and body-order-invariant form plus every option that can
// change the answer set. Parallelism is excluded (any value yields the
// same answers) and Limit is handled by the caller — only complete result
// sets are cached, and a limited request replays a prefix of one.
func answerViewKey(q *query.CQ, opts Options) string {
	var b strings.Builder
	b.WriteByte('0' + byte(opts.Mode))
	fmt.Fprintf(&b, "|%d|%d|%d|", opts.MaxSteps, opts.MaxRounds, opts.MaxRewriteCQs)
	b.WriteString(q.DedupKey())
	return b.String()
}

// AnswerCacheKey returns the canonical cache key this query answers under
// — the handle the server's pace-car flights deduplicate concurrent
// streams on. Two requests share a key exactly when they are guaranteed
// the same complete answer set (Limit and Parallelism are excluded).
func (o *Ontology) AnswerCacheKey(querySrc string, opts Options) (string, error) {
	q, err := ParseQuery(querySrc)
	if err != nil {
		return "", err
	}
	return answerViewKey(q, opts), nil
}

// CacheGeneration returns the current snapshot's generation number: it
// changes whenever a mutation could have changed some query's answers. The
// server joins it into pace-car flight keys so a request arriving after a
// mutation opens a fresh flight instead of replaying a stale one.
func (o *Ontology) CacheGeneration() uint64 { return o.load().gen }

// storeView adds a completed answer set to the views of the snapshot it was
// computed over. Rules, store and cache are one generation, so there is
// nothing to validate and no lock to take: the entry is installed by
// compare-and-swap on the snapshot's own cache, and a lost race (another
// reader filled first, or the budget was just cleared) simply skips the
// fill. Filling a snapshot that has been retired meanwhile is harmless — the
// entry is valid for it and unreachable from its successors unless publish
// carried it forward.
func (o *Ontology) storeView(s *snapshot, key string, u *query.UCQ, onMat bool, ans *Answers) {
	budget := o.ansBudget.Load()
	if budget <= 0 {
		return
	}
	c := s.views.Load()
	s.views.CompareAndSwap(c, c.WithEntry(budget, key, rescache.NewEntry(ans, u, onMat), &o.ansStats))
}

// AnswerStream is a resumable certain-answer iterator: the pull-based
// counterpart of AnswerEach, built for consumers that park between rows —
// the server's pace-car flights drive one shared stream for N concurrent
// requests. Not safe for concurrent use.
type AnswerStream struct {
	// A cache hit replays rows, the Limit-bounded tuples of the cached view.
	hit  *Answers
	rows []storage.Tuple
	i    int
	// A miss evaluates s; fill, when the result is cacheable, publishes the
	// finished answer set as a view.
	s    *eval.Stream
	fill func(*Answers)
}

// openAnswer is the one read path under AnswerCtx (collect), AnswerEach
// (push) and AnswerStream (pull): parse, load the snapshot, look the answer
// view up in it, and on a miss resolve the answering mode and prepare the
// union iterator over the snapshot's cached plans. The result replays the
// cached view without evaluating, or evaluates and — when it runs to
// completion with no Limit — stores its answer set as a view of the snapshot
// it evaluated. A Limit reads the cache (a prefix of the view is the limited
// answer) but never fills it; NoCache (or a disabled cache) does neither.
// Resolution (rewriting, a cold materialization build) honors ctx.
func (o *Ontology) openAnswer(ctx context.Context, querySrc string, opts Options) (AnswerStream, error) {
	q, err := ParseQuery(querySrc)
	if err != nil {
		return AnswerStream{}, err
	}
	snap := o.load()
	key := ""
	if !opts.NoCache && o.ansBudget.Load() > 0 {
		key = answerViewKey(q, opts)
		if view := snap.views.Load().Lookup(key, &o.ansStats); view != nil {
			rows := view.Tuples()
			if opts.Limit > 0 && opts.Limit < len(rows) {
				rows = rows[:opts.Limit]
			}
			return AnswerStream{hit: view, rows: rows}, nil
		}
	}
	u, snap, onMat, err := o.resolveAnswer(ctx, snap, q, opts)
	if err != nil {
		return AnswerStream{}, err
	}
	s := AnswerStream{s: eval.NewStream(snap.plansFor(u, onMat), u.Arity(), snap.store(onMat), o.evalOptions(opts))}
	if key != "" && opts.Limit == 0 {
		s.fill = func(ans *Answers) { o.storeView(snap, key, u, onMat, ans) }
	}
	return s, nil
}

// AnswerStream resolves the query exactly as AnswerEach does and returns
// the iterator; each Next call arms its own context. Streaming is
// sequential by construction; Options.Parallelism is ignored.
func (o *Ontology) AnswerStream(ctx context.Context, querySrc string, opts Options) (*AnswerStream, error) {
	s, err := o.openAnswer(ctx, querySrc, opts)
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// Next returns the next answer, or ok=false on exhaustion. The tuple is
// read-only, as in AnswerEach. A canceled Next kills the underlying
// evaluation permanently; see eval.Stream.Next.
func (s *AnswerStream) Next(ctx context.Context) (Answer, bool, error) {
	if s.s == nil {
		if s.i >= len(s.rows) {
			return nil, false, nil
		}
		s.i++
		return s.rows[s.i-1], true, nil
	}
	t, ok, err := s.s.Next(ctx)
	if err == nil && !ok && s.fill != nil {
		s.fill(s.s.Answers())
		s.fill = nil
	}
	return t, ok, err
}

// close abandons the stream before exhaustion: nothing is stored.
func (s *AnswerStream) close() {
	s.fill = nil
	if s.s != nil {
		s.s.Close()
	}
}

// collect is the AnswerCtx consumer: the complete answer set. A warm hit
// returns the shared view itself — no tuple is copied; a miss drains the
// stream (in parallel when Options.Parallelism asks for it).
func (s *AnswerStream) collect(ctx context.Context) (*Answers, error) {
	if s.s == nil {
		if len(s.rows) == s.hit.Len() {
			return s.hit, nil
		}
		ans := eval.NewAnswers(s.hit.Arity())
		for _, t := range s.rows {
			ans.AddOwned(t)
		}
		return ans, nil
	}
	ans, err := s.s.Collect(ctx)
	if err == nil && s.fill != nil {
		s.fill(ans)
	}
	return ans, err
}
