package repro

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/eval"
	"repro/internal/logic"
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
		o.ansCache.Store(nil)
	}
}

// AnswerCacheStats counts answer-view cache activity since the Ontology
// was built. Entries and Bytes describe the live generation only — views
// orphaned by a mutation stop counting even before they are reclaimed.
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
	pe := o.planEpoch.Load()
	re := o.rulesEpoch.Load()
	c := o.ansCache.Load()
	st := AnswerCacheStats{
		Hits:            o.ansStats.Hits.Load(),
		Misses:          o.ansStats.Misses.Load(),
		Evictions:       o.ansStats.Evictions.Load(),
		DeltaMaintained: o.ansStats.DeltaMaintained.Load(),
	}
	st.Entries, st.Bytes = c.Usage(rescache.Gen{Epoch: pe, RulesEpoch: re})
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

// CacheGeneration returns the (snapshot, rules, data) generation triple:
// it changes whenever a mutation could have changed some query's answers.
// The server joins it into pace-car flight keys so a request arriving
// after a mutation opens a fresh flight instead of replaying a stale one.
func (o *Ontology) CacheGeneration() (epoch, rulesEpoch, dataMut uint64) {
	return o.planEpoch.Load(), o.rulesEpoch.Load(), o.data.Mutations()
}

// lookupAnswerView is the lock-free read path of the answer-view cache:
// load the epochs, load the cache, reject on generation or data-mutation
// mismatch. Returns the cached set (nil on miss) and the view's key (""
// when this call bypasses the cache: cache disabled or NoCache).
func (o *Ontology) lookupAnswerView(q *query.CQ, opts Options) (*Answers, string) {
	if opts.NoCache || o.ansBudget.Load() <= 0 {
		return nil, ""
	}
	pe := o.planEpoch.Load()
	re := o.rulesEpoch.Load()
	c := o.ansCache.Load()
	key := answerViewKey(q, opts)
	ans := c.Lookup(key, rescache.Gen{Epoch: pe, RulesEpoch: re}, o.data.Mutations(), &o.ansStats)
	return ans, key
}

// storeAnswerView publishes a completed answer set as a cached view. It
// runs after a miss — the caller already paid full evaluation — so it may
// coordinate with writers: under a TryLock of wmu the published snapshots
// are frozen, and the fill proceeds only if store is still the currently
// published snapshot and the data is unmutated, so a result computed over
// a just-retired snapshot is never published under the live generation.
// When a writer holds wmu the store is skipped outright: the mutation in
// flight would invalidate the entry anyway. The answering read path never
// takes a lock; only this post-miss fill does, and only opportunistically.
func (o *Ontology) storeAnswerView(key string, u *query.UCQ, store storage.Store, ans *Answers) {
	budget := o.ansBudget.Load()
	if budget <= 0 || !o.wmu.TryLock() {
		return
	}
	defer o.wmu.Unlock()
	dataMut := o.data.Mutations()
	current := false
	if m := o.mat.Load(); m != nil && m.store == store && m.baseMut == dataMut {
		current = true
	} else if s := o.base.Load(); s != nil && store == s.ins && s.baseMut == dataMut {
		current = true
	}
	if !current {
		return
	}
	pe := o.planEpoch.Load()
	re := o.rulesEpoch.Load()
	c := o.ansCache.Load()
	gen := rescache.Gen{Epoch: pe, RulesEpoch: re}
	e := rescache.NewEntry(ans, u, store, dataMut)
	o.ansCache.Store(c.WithEntry(gen, budget, key, e, &o.ansStats))
}

// maintainAnswerViews carries cached answer views across a committed
// insert-only mutation: each view pinned to a pre-mutation snapshot is
// joined against the inserted delta through its seeded plans and
// republished under the post-mutation generation (rescache.MaintainInsert)
// — CQ answers are monotone under inserts, so merging the delta answers
// is exact. Views whose snapshot was not republished (or republished
// truncated) are dropped instead. Runs in mutate's publish phase under
// o.wmu, after every epoch bump and snapshot store.
func (o *Ontology) maintainAnswerViews(added []logic.Atom, oldMat *materialization, oldBase *baseSnapshot, dataMut uint64) {
	c := o.ansCache.Load()
	pe := o.planEpoch.Load()
	re := o.rulesEpoch.Load()
	if c == nil {
		return
	}
	in := rescache.MaintainInput{
		Added:   added,
		DataMut: dataMut,
		Budget:  o.ansBudget.Load(),
	}
	if oldMat != nil {
		if m := o.mat.Load(); m != nil && m.terminated {
			in.OldMat, in.NewMat = oldMat.store, m.store
		}
	}
	if oldBase != nil {
		if s := o.base.Load(); s != nil {
			in.OldBase, in.NewBase = oldBase.ins, s.ins
		}
	}
	o.ansCache.Store(c.MaintainInsert(rescache.Gen{Epoch: pe, RulesEpoch: re}, in, &o.ansStats))
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
// (push) and AnswerStream (pull): parse, look the answer view up, and on a
// miss resolve the answering mode and prepare the union iterator over the
// cached plans. The result replays the cached view without evaluating, or
// evaluates and — when it runs to completion over a published snapshot with
// no Limit — stores its answer set as a view for the next caller. A Limit
// reads the cache (a prefix of the view is the limited answer) but never
// fills it; NoCache does neither. Resolution (rewriting, a cold
// materialization build) honors ctx.
func (o *Ontology) openAnswer(ctx context.Context, querySrc string, opts Options) (AnswerStream, error) {
	q, err := ParseQuery(querySrc)
	if err != nil {
		return AnswerStream{}, err
	}
	view, key := o.lookupAnswerView(q, opts)
	if view != nil {
		rows := view.Tuples()
		if opts.Limit > 0 && opts.Limit < len(rows) {
			rows = rows[:opts.Limit]
		}
		return AnswerStream{hit: view, rows: rows}, nil
	}
	u, store, published, err := o.resolveAnswer(ctx, q, opts)
	if err != nil {
		return AnswerStream{}, err
	}
	s := AnswerStream{s: eval.NewStream(o.plansFor(u, store, published), u.Arity(), store, o.evalOptions(opts))}
	if key != "" && published && opts.Limit == 0 {
		s.fill = func(ans *Answers) { o.storeAnswerView(key, u, store, ans) }
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
