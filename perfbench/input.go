package main

import (
	"strings"

	"repro/internal/jobs"
)

// stream is a pregenerated request sequence held without pointers: the
// job names are substrings of one string, the rest plain numbers. The
// garbage collector therefore never scans the benchmark's inputs, and
// a run's collections cost what the program's own memory costs.
type stream struct {
	names string
	recs  []streamRec
}

type streamRec struct {
	start, end int64
	off        uint32
	n          uint16
	kind       jobs.RequestKind
}

func compact(reqs []jobs.Request) *stream {
	var b strings.Builder
	s := &stream{recs: make([]streamRec, len(reqs))}
	for i, r := range reqs {
		s.recs[i] = streamRec{start: r.Window.Start, end: r.Window.End, off: uint32(b.Len()), n: uint16(len(r.Name)), kind: r.Kind}
		b.WriteString(r.Name)
	}
	s.names = b.String()
	return s
}

func (s *stream) len() int { return len(s.recs) }

func (s *stream) at(i int) jobs.Request {
	r := &s.recs[i]
	return jobs.Request{
		Kind:   r.kind,
		Name:   s.names[r.off : r.off+uint32(r.n)],
		Window: jobs.Window{Start: r.start, End: r.end},
	}
}

// appendRange appends requests [from, to) to dst.
func (s *stream) appendRange(dst []jobs.Request, from, to int) []jobs.Request {
	for i := from; i < to; i++ {
		dst = append(dst, s.at(i))
	}
	return dst
}
