package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traceSnapshot is the span tree GET /api/trace/{id} serves.
type traceSnapshot struct {
	StartUnixNs int64         `json:"startUnixNs"`
	DurNs       int64         `json:"durNs"`
	Spans       []*serverSpan `json:"spans"`
}

type serverSpan struct {
	Name     string         `json:"name"`
	Start    int64          `json:"startUnixNs"`
	Dur      int64          `json:"durNs"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*serverSpan  `json:"children,omitempty"`
}

// The cube stages a scan span's shardScan children break down, in the
// order querySplit.stages keeps them.
var stageAttrs = [...]string{"filterMaskNs", "groupDecodeNs", "accumulateNs", "mergeNs"}

// querySplit attributes one query request's client round trip to layers.
// The parts add up to the round trip exactly:
//
//	rt = webapi + qsched + cube + unattributed
//
// webapi is the time outside the server's trace (HTTP, body decode,
// session lookup, response encode); cube is the part of the trace covered
// by scan spans; qsched the part covered by the scheduler's own spans
// (admission wait, compile, finalize, result-cache lookup) and no scan;
// unattributed is the rest of the trace. cube is further split over the
// scan stages in proportion to the stage times the executor reports, with
// the scan's self time as the remainder.
type querySplit struct {
	rt, webapi, qsched, cube, unattributed time.Duration
	stages                                 [len(stageAttrs)]time.Duration // attributed share of cube
	scanSelf                               time.Duration

	// Raw span time of the request, summed over its spans of each kind.
	scan, admission, compile, finalize time.Duration
	stageRaw                           [len(stageAttrs)]time.Duration
	scans, admissions                  int
}

type interval struct{ lo, hi int64 }

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi int64) int64 {
	var c []interval
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
		if iv.hi > iv.lo {
			c = append(c, iv)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].lo < c[j].lo })
	var total, end int64
	end = lo
	for _, iv := range c {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

func splitQuery(rec *record) querySplit {
	ts := rec.trace
	s := querySplit{rt: rec.end.Sub(rec.start)}
	lo, hi := ts.StartUnixNs, ts.StartUnixNs+ts.DurNs
	var scanIv, allIv []interval
	// A coalesced scan's span is attached once per query of the batch it
	// served; count each distinct scan once.
	seen := map[interval]bool{}
	for _, sp := range ts.Spans {
		iv := interval{sp.Start, sp.Start + sp.Dur}
		allIv = append(allIv, iv)
		d := time.Duration(sp.Dur)
		switch sp.Name {
		case "scan":
			scanIv = append(scanIv, iv)
			if seen[iv] {
				continue
			}
			seen[iv] = true
			s.scan += d
			s.scans++
			for _, ch := range sp.Children {
				for k, a := range stageAttrs {
					if v, ok := ch.Attrs[a].(float64); ok {
						s.stageRaw[k] += time.Duration(v)
					}
				}
			}
		case "admissionWait":
			s.admission += d
			s.admissions++
		case "compile":
			s.compile += d
		case "finalize":
			s.finalize += d
		}
	}
	trace := time.Duration(ts.DurNs)
	s.webapi = s.rt - trace
	s.cube = time.Duration(covered(scanIv, lo, hi))
	s.qsched = time.Duration(covered(allIv, lo, hi)) - s.cube
	s.unattributed = trace - s.cube - s.qsched
	s.scanSelf = s.cube
	if s.scan > 0 {
		for k, raw := range s.stageRaw {
			s.stages[k] = time.Duration(float64(s.cube) * float64(raw) / float64(s.scan))
			s.scanSelf -= s.stages[k]
		}
	}
	return s
}

// span is one benchmark-side span, kept in memory during the traced run
// and written out as JSON lines at its end. Spans of one request share
// its X-Request-Id.
type span struct {
	Req    string `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"startUnixNs"`
	Dur    int64  `json:"durNs"`
	Self   int64  `json:"selfNs"`
}

// querySpans renders a traced query request: the client round trip, the
// server trace under it, the server's spans under that, and the layer
// split as self times (unattributed included) of the client span.
func querySpans(rec *record, sp querySplit) []span {
	ts := rec.trace
	out := []span{
		{Req: rec.reqID, Name: "client." + rec.op.kind.String(), Start: rec.start.UnixNano(),
			Dur: sp.rt.Nanoseconds(), Self: sp.webapi.Nanoseconds()},
		{Req: rec.reqID, Name: "server.trace", Parent: "client." + rec.op.kind.String(),
			Start: ts.StartUnixNs, Dur: ts.DurNs, Self: sp.unattributed.Nanoseconds()},
		{Req: rec.reqID, Name: "split.qsched", Parent: "server.trace", Dur: sp.qsched.Nanoseconds(), Self: sp.qsched.Nanoseconds()},
		{Req: rec.reqID, Name: "split.cube", Parent: "server.trace", Dur: sp.cube.Nanoseconds(), Self: sp.scanSelf.Nanoseconds()},
	}
	for k, a := range stageAttrs {
		out = append(out, span{Req: rec.reqID, Name: "split.cube." + a[:len(a)-2], Parent: "split.cube",
			Dur: sp.stages[k].Nanoseconds(), Self: sp.stages[k].Nanoseconds()})
	}
	var walk func(parent string, ss []*serverSpan)
	walk = func(parent string, ss []*serverSpan) {
		for _, s := range ss {
			var kids []interval
			for _, c := range s.Children {
				kids = append(kids, interval{c.Start, c.Start + c.Dur})
			}
			out = append(out, span{Req: rec.reqID, Name: s.Name, Parent: parent, Start: s.Start, Dur: s.Dur,
				Self: s.Dur - covered(kids, s.Start, s.Start+s.Dur)})
			walk(s.Name, s.Children)
		}
	}
	walk("server.trace", ts.Spans)
	return out
}

// loginSpans renders the replayed login-path calls of one login.
func loginSpans(lf loginFacts) []span {
	req := lf.rec.reqID
	at := lf.at.UnixNano()
	calls := []struct {
		name string
		d    time.Duration
	}{
		{"core.session_start", lf.start}, {"geoidx.radius", lf.radius},
		{"cube.view_materialize", lf.mater}, {"webapi.schema_diff", lf.schemaDiff},
	}
	out := []span{{Req: req, Name: "replay.login", Start: at}}
	for _, c := range calls {
		d := c.d.Nanoseconds()
		out = append(out, span{Req: req, Name: c.name, Parent: "replay.login", Start: at + out[0].Dur, Dur: d, Self: d})
		out[0].Dur += d
	}
	return out
}

// writeSpans writes the spans as JSON lines to dir/<name>.jsonl.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
