package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer. Job is the
// step (simulation workloads) or job number (serve_open) the call
// belongs to; Parent is 0 for a root span.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, when the run
// ends, so recording costs two clock reads and an append.
type tracer struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span whose call has not returned yet.
type openSpan struct {
	id, parent int64
	name       string
	job, rank  int
	start      time.Time
}

// begin opens a span; its id is valid as a parent immediately. On a
// nil tracer it only starts a clock.
func (t *tracer) begin(name string, parent int64, job, rank int) openSpan {
	if t == nil {
		return openSpan{start: time.Now()}
	}
	return openSpan{id: t.next.Add(1), parent: parent, name: name, job: job, rank: rank, start: time.Now()}
}

// end closes the span and returns its duration.
func (t *tracer) end(o openSpan) time.Duration {
	now := time.Now()
	if t != nil {
		t.add(o, o.start, now)
	}
	return now.Sub(o.start)
}

// add records a span whose start and end were observed elsewhere
// (job lifecycle timestamps reported by the service).
func (t *tracer) add(o openSpan, start, end time.Time) {
	s := Span{ID: o.id, Parent: o.parent, Name: o.name, Job: o.job, Rank: o.rank,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
