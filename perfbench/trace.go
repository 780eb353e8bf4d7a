package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Parent is the ID of the enclosing span (0 for a
// round).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced rounds pay only the nil test.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID for children to name as their
// parent. A span opened before its children is added with end == start
// and closed with end.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// end sets the end time of span id.
func (t *tracer) end(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = at.Sub(t.t0).Nanoseconds()
}

// write saves the spans as one JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// allocCounter reads the runtime's cumulative allocation counters without
// stopping the world, so it can bracket single calls.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

// read returns the bytes and objects allocated since the program began.
func (a *allocCounter) read() (bytes, objects uint64) {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// gcState is the collector's cumulative work at one instant.
type gcState struct {
	cycles  uint32
	pauseNS uint64
}

func readGC() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcState{cycles: ms.NumGC, pauseNS: ms.PauseTotalNs}
}
