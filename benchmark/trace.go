package main

import (
	"slices"
	"sync"
	"time"
)

// spans keeps the durations of a run's timed layer calls in memory, by
// name; the benchmark records them around the public entry points it
// drives. When off (the untraced runs that give the end-to-end numbers)
// do just calls through.
type spans struct {
	on bool

	mu sync.Mutex
	by map[string]samples
}

func newSpans(on bool) *spans { return &spans{on: on, by: make(map[string]samples)} }

// do runs f, recording its duration under name when tracing.
func (s *spans) do(name string, f func() error) error {
	if !s.on {
		return f()
	}
	start := time.Now()
	err := f()
	s.add(name, time.Since(start))
	return err
}

func (s *spans) add(name string, d time.Duration) {
	if !s.on {
		return
	}
	s.mu.Lock()
	s.by[name] = append(s.by[name], d)
	s.mu.Unlock()
}

// of returns the durations recorded under name.
func (s *spans) of(name string) samples {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.by[name])
}
