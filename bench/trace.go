package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// Spans are recorded by the benchmark itself, around its calls into the
// layers' public functions; spans inside the program are a later change.
// They stay in memory during the run and are written out once it ends.

// span is one timed call. Start and End are nanoseconds since the
// traced segment began; Req is shared by the spans of one operation.
type span struct {
	ID, Parent, Req uint32
	Name            string
	Start, End      int64
	Source          string // where a read was served from, when known
}

// callerTrace is one caller's private span buffer, so recording takes
// no lock. IDs are strided by caller to stay unique across buffers.
type callerTrace struct {
	spans  []span
	next   uint32
	stride uint32
}

func newCallerTrace(caller, callers, capacity int) *callerTrace {
	return &callerTrace{
		spans:  make([]span, 0, capacity),
		next:   uint32(caller + 1),
		stride: uint32(callers),
	}
}

// add records a span and returns its ID. With parent 0 the span is a
// root and opens a new request. A full buffer drops the span: the run
// must not allocate while it is being measured.
func (t *callerTrace) add(parent, req uint32, name string, start, end int64, source string) uint32 {
	id := t.next
	t.next += t.stride
	if parent == 0 {
		req = id
	}
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, Source: source})
	}
	return id
}

// selfTimes returns, per span name, each span's self time: its duration
// minus the part of its interval that its child spans cover. Children
// are clipped to the parent and overlapping children are counted once.
func selfTimes(spans []span) map[string][]int64 {
	children := make(map[uint32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]int64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], (s.End-s.Start)-covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals
// inside the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// writeTrace writes the spans as JSON lines.
func writeTrace(path string, traces []*callerTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, t := range traces {
		for _, s := range t.spans {
			line = append(line[:0], `{"id":`...)
			line = strconv.AppendUint(line, uint64(s.ID), 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendUint(line, uint64(s.Parent), 10)
			line = append(line, `,"req":`...)
			line = strconv.AppendUint(line, uint64(s.Req), 10)
			line = append(line, `,"name":`...)
			line = strconv.AppendQuote(line, s.Name)
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, s.Start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.End, 10)
			if s.Source != "" {
				line = append(line, `,"source":`...)
				line = strconv.AppendQuote(line, s.Source)
			}
			line = append(line, "}\n"...)
			bw.Write(line)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
