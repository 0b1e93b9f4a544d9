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

// DefaultAnswerCacheBytes is the answer-view cache budget the server
// enables by default (server.Config.AnswerCacheBytes and cmd/serve's -cache
// flag). The library default is off — SetAnswerCacheBudget opts an Ontology
// in.
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
// was built. Entries and Bytes describe the current snapshot's views only:
// every publication starts the next snapshot with an empty cache.
type AnswerCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// DeltaMaintained is always 0: views are no longer carried across
	// mutations. The field stays so callers that read it keep compiling.
	DeltaMaintained uint64
	Entries         int
	Bytes           int64
}

// AnswerCacheStats reports the answer-view cache counters. Lock-free.
func (o *Ontology) AnswerCacheStats() AnswerCacheStats {
	st := AnswerCacheStats{
		Hits:      o.ansStats.Hits.Load(),
		Misses:    o.ansStats.Misses.Load(),
		Evictions: o.ansStats.Evictions.Load(),
	}
	st.Entries, st.Bytes = o.snap.Load().views.Load().Usage()
	return st
}

// answerViewKey canonicalizes one answering request: the input query in
// renaming- and body-order-invariant form plus every option that can
// change the answer set. Limit is handled by the caller — only complete
// result sets are cached, and a limited request replays a prefix of one.
func answerViewKey(q *query.CQ, opts Options) string {
	var b strings.Builder
	b.WriteByte('0' + byte(opts.Mode))
	fmt.Fprintf(&b, "|%d|%d|%d|", opts.MaxSteps, opts.MaxRounds, opts.MaxRewriteCQs)
	b.WriteString(q.DedupKey())
	return b.String()
}

// storeView adds a completed answer set to the views of the snapshot it was
// computed over. Rules, store and cache are one generation, so there is
// nothing to validate and no lock to take: the entry is installed by
// compare-and-swap on the snapshot's own cache, and a lost race (another
// reader filled first, or the budget was just cleared) simply skips the
// fill. Filling a snapshot that has been retired meanwhile is harmless — the
// entry is valid for it and unreachable from its successors.
func (o *Ontology) storeView(s *snapshot, key string, ans *Answers) {
	budget := o.ansBudget.Load()
	if budget <= 0 {
		return
	}
	c := s.views.Load()
	s.views.CompareAndSwap(c, c.WithEntry(budget, key, rescache.NewEntry(ans), &o.ansStats))
}

// answerStream is the one read path's iterator, opened by openAnswer and
// drained by AnswerCtx (collect) and AnswerEach (next). Not safe for
// concurrent use.
type answerStream struct {
	// A cache hit replays rows, the Limit-bounded tuples of the cached view.
	hit  *Answers
	rows []storage.Tuple
	i    int
	// A miss evaluates s; fill, when the result is cacheable, publishes the
	// finished answer set as a view.
	s    *eval.Stream
	fill func(*Answers)
}

// openAnswer is the one read path under AnswerCtx and AnswerEach: parse, load
// the snapshot, look the answer view up in it, and on a miss resolve the
// answering mode and prepare the union iterator over the snapshot's cached
// plans. The result replays the cached view without evaluating, or evaluates
// and — when it runs to completion with no Limit — stores its answer set as a
// view of the snapshot it evaluated. A Limit reads the cache (a prefix of the
// view is the limited answer) but never fills it; NoCache (or a disabled
// cache) does neither. Resolution (rewriting, a cold materialization build)
// honors ctx.
func (o *Ontology) openAnswer(ctx context.Context, querySrc string, opts Options) (answerStream, error) {
	q, err := ParseQuery(querySrc)
	if err != nil {
		return answerStream{}, err
	}
	snap := o.snap.Load()
	key := ""
	if !opts.NoCache && o.ansBudget.Load() > 0 {
		key = answerViewKey(q, opts)
		if view := snap.views.Load().Lookup(key, &o.ansStats); view != nil {
			rows := view.Tuples()
			if opts.Limit > 0 && opts.Limit < len(rows) {
				rows = rows[:opts.Limit]
			}
			return answerStream{hit: view, rows: rows}, nil
		}
	}
	u, snap, onMat, err := o.resolveAnswer(ctx, snap, q, opts)
	if err != nil {
		return answerStream{}, err
	}
	s := answerStream{s: eval.NewStream(snap.plansFor(u), u.Arity(), snap.store(onMat), evalOptions(opts))}
	if key != "" && opts.Limit == 0 {
		s.fill = func(ans *Answers) { o.storeView(snap, key, ans) }
	}
	return s, nil
}

// next returns the next answer, or ok=false on exhaustion. The tuple is
// read-only, as in AnswerEach. A canceled next kills the underlying
// evaluation permanently; see eval.Stream.Next.
func (s *answerStream) next(ctx context.Context) (Answer, bool, error) {
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
func (s *answerStream) close() {
	s.fill = nil
	if s.s != nil {
		s.s.Close()
	}
}

// collect is the AnswerCtx consumer: the complete answer set. A warm hit
// returns the shared view itself — no tuple is copied; a miss drains the
// stream.
func (s *answerStream) collect(ctx context.Context) (*Answers, error) {
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
