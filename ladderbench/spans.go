package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Every span of one
// unit of work (a block of queue pairs, a pipeline item, a job) shares
// its Trace ID; Parent names the enclosing span, 0 for a root. IDs are
// unique within a pass, which Pass names.
type span struct {
	Pass   string `json:"pass"`
	Trace  uint64 `json:"trace"`
	ID     uint32 `json:"span"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog assembles spans from the timestamps a pass recorded. Passes
// record plain timestamps while they run and build spans only after the
// window, so the log itself needs no locking.
type spanLog struct {
	pass  string
	spans []span
}

// add appends a span and returns its ID for use as a parent. An
// interval with an unrecorded end is skipped and returns parent.
func (l *spanLog) add(trace uint64, parent uint32, name string, start, end int64) uint32 {
	if start == 0 || end == 0 || end < start {
		return parent
	}
	id := uint32(len(l.spans) + 1)
	l.spans = append(l.spans, span{Pass: l.pass, Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// clock reads nanoseconds since a pass-local base on the monotonic
// clock. A zero reading means "not recorded", so now never returns 0.
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.base)) | 1 }

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
