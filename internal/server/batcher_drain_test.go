package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/parser"
)

// TestBatcherDrainDeliversBacklog covers the flusher hand-off directly:
// requests that parked while a flush was inside the pipeline must be
// flushed by the detached drainer, which then retires the flusher role so
// future writers do not park forever. Regression test for the ctxpoll
// finding on the old AddFacts flush loop.
func TestBatcherDrainDeliversBacklog(t *testing.T) {
	ont := repro.MustParse(familyProgram)
	b := newBatcher(ont)

	const parked = 4
	reqs := make([]*writeReq, parked)
	b.mu.Lock()
	b.flushing = true // as if a flusher were inside the pipeline right now
	for i := range reqs {
		facts, err := parser.ParseFacts(fmt.Sprintf("parent(d%d, e%d) .", i, i))
		if err != nil {
			b.mu.Unlock()
			t.Fatal(err)
		}
		reqs[i] = &writeReq{ctx: context.Background(), facts: facts, done: make(chan writeResult, 1)}
		b.pending = append(b.pending, reqs[i])
	}
	b.mu.Unlock()

	go b.drain()

	for i, req := range reqs {
		select {
		case res := <-req.done:
			if res.err != nil {
				t.Fatalf("parked request %d: %v", i, res.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("parked request %d never delivered by drain", i)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		b.mu.Lock()
		flushing := b.flushing
		b.mu.Unlock()
		if !flushing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never retired the flusher role")
		}
		time.Sleep(time.Millisecond)
	}

	ans, err := ont.AnswerCtx(context.Background(), "q(X, Y) :- parent(X, Y) .", repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + parked; ans.Len() != want {
		t.Fatalf("parent count after drain = %d, want %d", ans.Len(), want)
	}
}

// TestBatcherFlusherNotCaptive asserts the liveness property the drain
// hand-off exists for: a writer that takes the flusher role returns once
// the batch containing its own facts commits, even while other writers keep
// the pending queue full. Under the previous design the first writer kept
// flushing later arrivals' batches on its own goroutine, unboundedly.
func TestBatcherFlusherNotCaptive(t *testing.T) {
	ont := repro.MustParse(familyProgram)
	if _, err := ont.AnswerCtx(context.Background(), "q(X, Y) :- ancestor(X, Y) .", repro.Options{}); err != nil {
		t.Fatal(err)
	}
	b := newBatcher(ont)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := b.AddFacts(context.Background(), fmt.Sprintf("parent(w%dx%d, v%d) .", w, i, i)); err != nil {
					t.Errorf("background writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < 8; i++ {
		done := make(chan error, 1)
		go func(i int) {
			_, err := b.AddFacts(context.Background(), fmt.Sprintf("parent(f%d, g%d) .", i, i))
			done <- err
		}(i)
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("flusher captive: AddFacts did not return under sustained concurrent load")
		}
	}
}
