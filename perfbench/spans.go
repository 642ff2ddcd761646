package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shredder/internal/obs"
)

// spanRollup folds every span tree the traced run's tracer completes
// into per-name totals and self times. The tracer hands it each root as
// the root ends (TracerConfig.OnSlow with a 1ns threshold), so nothing
// depends on the tracer's bounded rings.
type spanRollup struct {
	on atomic.Bool // collect only while set

	mu      sync.Mutex
	names   map[string]*spanAgg
	edges   map[[2]string]float64 // parent name, child name → child seconds
	dropped int
	// roots maps "root name/recipe" to that root's duration, for
	// matching server operations to the client calls that caused them.
	roots map[string]float64
}

type spanAgg struct {
	total float64 // seconds
	self  float64 // seconds not covered by children (see add)
}

func newSpanRollup() *spanRollup {
	return &spanRollup{
		names: make(map[string]*spanAgg),
		edges: make(map[[2]string]float64),
		roots: make(map[string]float64),
	}
}

// onRoot is the tracer's OnSlow hook.
func (r *spanRollup) onRoot(root *obs.Span) {
	if !r.on.Load() {
		return
	}
	r.add(root.TraceData())
}

// add rolls up one process-local trace. A span's self time is its
// duration minus the union of the intervals covered by its children and
// by any sibling that ran entirely inside it (the server ingests
// uploaded bodies in put_batch spans that are siblings of, and nested
// in time within, their recv_bodies span).
func (r *spanRollup) add(td obs.TraceData) {
	type iv struct{ lo, hi time.Time }
	byID := make(map[string]int, len(td.Spans))
	kids := make(map[string][]int)
	for i, s := range td.Spans {
		byID[s.SpanID] = i
	}
	for i, s := range td.Spans {
		if _, ok := byID[s.ParentID]; ok && !s.Remote {
			kids[s.ParentID] = append(kids[s.ParentID], i)
		}
	}
	span := func(i int) iv {
		s := td.Spans[i]
		return iv{s.Start, s.Start.Add(time.Duration(s.Duration * float64(time.Second)))}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropped += td.Dropped
	for i, s := range td.Spans {
		me := span(i)
		var cover []iv
		for _, k := range kids[s.SpanID] {
			cover = append(cover, span(k))
			r.edges[[2]string{s.Name, td.Spans[k].Name}] += td.Spans[k].Duration
		}
		if p, ok := byID[s.ParentID]; ok && !s.Remote {
			for _, sib := range kids[td.Spans[p].SpanID] {
				if sib == i {
					continue
				}
				if o := span(sib); !o.lo.Before(me.lo) && !o.hi.After(me.hi) {
					cover = append(cover, o)
				}
			}
		}
		// Union of the covering intervals, clipped to this span.
		sort.Slice(cover, func(a, b int) bool { return cover[a].lo.Before(cover[b].lo) })
		var covered time.Duration
		var end time.Time
		for _, c := range cover {
			lo, hi := c.lo, c.hi
			if lo.Before(me.lo) {
				lo = me.lo
			}
			if hi.After(me.hi) {
				hi = me.hi
			}
			if lo.Before(end) {
				lo = end
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				end = hi
			}
		}
		a := r.names[s.Name]
		if a == nil {
			a = &spanAgg{}
			r.names[s.Name] = a
		}
		a.total += s.Duration
		a.self += s.Duration - covered.Seconds()
		if s.ParentID == "" || s.Remote {
			if recipe, ok := s.Attrs["recipe"].(string); ok {
				r.roots[s.Name+"/"+recipe] += s.Duration
			}
		}
	}
}

func (r *spanRollup) self(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.names[name]; a != nil {
		return a.self
	}
	return 0
}

func (r *spanRollup) total(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.names[name]; a != nil {
		return a.total
	}
	return 0
}

func (r *spanRollup) edge(parent, child string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.edges[[2]string{parent, child}]
}

func (r *spanRollup) root(name, recipe string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.roots[name+"/"+recipe]
	return d, ok
}

func (r *spanRollup) droppedSpans() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// durSeconds converts span seconds back to a duration.
func durSeconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
