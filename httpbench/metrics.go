package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef describes one metric the benchmark reports. BENCHMARK.json
// at the repository root lists the same names, units, directions and
// bounds (metrics_test.go keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "higher", or "lower" when empty
	bound  float64 // end-to-end: the tolerated worsening, as a share of the parent's median
	// on names the workloads the metric is meant for; the others report
	// it too, measured the same way (see what).
	on string
	// moves names the end-to-end metric a change to this layer should move.
	moves string
	what  string
}

// endToEnd are the metrics a user of the service sees (--trace 0).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, on: "all",
		what: "median of 3 set-ups in the run: data generation, cube build, rule registration, set-up logins and warm-up"},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: "all",
		what: "/api/query or /api/query/batch latency in the open loop, from each request's due time"},
	{name: "query_p99_ms", unit: "ms", better: "lower", bound: 0.25, on: "all",
		what: "as query_p50_ms; the median of the 10 rounds' p99s. A round holds about 34 batches on wide_scans, so its p99 lies between its two largest samples"},
	{name: "login_p99_ms", unit: "ms", better: "lower", bound: 0.25, on: "login_churn",
		what: "/api/login latency: open-loop lifecycles on login_churn, the login probes of fresh managers on wide_scans; the median of the 10 rounds' p99s. A round holds about 20 probe logins on wide_scans, so its p99 is near its largest sample"},
	{name: "select_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: "login_churn", what: "/api/select latency, same sources as login_p99_ms"},
	{name: "capacity_rps", unit: "req/s", better: "higher", bound: 0.25, on: "all",
		what: "successful requests per second in the closed-loop segments with 2 connections, median of the 10 rounds"},
	{name: "heap_mb", unit: "MiB", better: "lower", bound: 0.1, on: "all", what: "live heap after GC at the end of set-up, median of the 3 set-ups"},
}

// ungated are end-to-end latencies the run prints but BENCHMARK.json does
// not list: their run-to-run spread on a 2-vCPU VM (10 seeds, quartile
// distance over the median) exceeded the 0.25 ceiling of a bound —
// login_p50_ms 0.44 on wide_scans (fresh-manager logins are memory-bound
// and move with the host), select_p99_ms 0.36–0.42 on login_churn (about
// 300 selections per run).
var ungated = []metricDef{
	{name: "login_p50_ms", unit: "ms", better: "lower", on: "login_churn", what: "as login_p99_ms, pooled"},
	{name: "select_p99_ms", unit: "ms", better: "lower", on: "login_churn", what: "as select_p50_ms; the median of the 10 rounds' p99s"},
}

// perLayer are the metrics of single layers (--trace 1). Those whose
// description starts with "timed" come from the traced run's untraced
// phase.
var perLayer = []metricDef{
	{name: "webapi.residual_us_p50", unit: "us", on: "login_churn", moves: "query_p50_ms",
		what: "client round trip minus the server trace's durNs: HTTP, decode, session lookup, encode"},
	{name: "webapi.resp_bytes_per_query", unit: "bytes", on: "login_churn,wide_scans", moves: "query_p50_ms",
		what: "response body bytes per query (per tile of a batch)"},
	{name: "webapi.schema_diff_us_p50", unit: "us", on: "login_churn", moves: "login_p99_ms",
		what: "geomd.Schema.Diff on each replayed login's schema"},
	{name: "qsched.admission_wait_us_p50", unit: "us", on: "login_churn", moves: "query_p50_ms",
		what: "admissionWait span time per request that queued"},
	{name: "qsched.admission_wait_us_p99", unit: "us", on: "login_churn", moves: "query_p99_ms", what: "as qsched.admission_wait_us_p50"},
	{name: "qsched.compile_us_p50", unit: "us", on: "login_churn,wide_scans", moves: "query_p50_ms",
		what: "compile span time per request that compiled; batch requests carry no compile span, so there Cube.Compile of their queries is timed on the SUT's cube"},
	{name: "qsched.finalize_us_p50", unit: "us", on: "login_churn,wide_scans", moves: "query_p50_ms",
		what: "finalize span time per request that scanned"},
	{name: "qsched.cache_hit_ratio", unit: "ratio", better: "higher", on: "login_churn", moves: "query_p50_ms",
		what: "timed: /api/stats cache hits / (hits + misses) over the open loop; about 0 on wide_scans"},
	{name: "qsched.queries_per_scan", unit: "ratio", better: "higher", on: "wide_scans,login_churn", moves: "capacity_rps",
		what: "timed: /api/stats executed / factScans over the open loop"},
	{name: "qsched.dedup_share", unit: "ratio", better: "higher", on: "wide_scans,login_churn", moves: "capacity_rps",
		what: "timed: /api/stats shared / submitted over the open loop"},
	{name: "cube.scan_us_p50", unit: "us", on: "wide_scans", moves: "query_p50_ms,capacity_rps",
		what: "scan span time per request that scanned (each shared scan counted once); predict no change on login_churn"},
	{name: "cube.filter_mask_us_p50", unit: "us", on: "wide_scans", moves: "query_p50_ms,capacity_rps", what: "shardScan filterMaskNs per scanning request"},
	{name: "cube.group_decode_us_p50", unit: "us", on: "wide_scans", moves: "query_p50_ms,capacity_rps", what: "shardScan groupDecodeNs per scanning request"},
	{name: "cube.accumulate_us_p50", unit: "us", on: "wide_scans", moves: "query_p50_ms,capacity_rps", what: "shardScan accumulateNs per scanning request"},
	{name: "cube.merge_us_p50", unit: "us", on: "wide_scans", moves: "query_p50_ms,capacity_rps", what: "shardScan mergeNs per scanning request"},
	{name: "cube.facts_scanned_per_query", unit: "count", on: "wide_scans", moves: "query_p50_ms",
		what: "mean scannedFacts of the answers"},
	{name: "cube.matched_per_scanned", unit: "ratio", better: "higher", on: "wide_scans", moves: "query_p50_ms",
		what: "sum of matchedFacts / sum of scannedFacts of the answers"},
	{name: "cube.filter_mask_sharing", unit: "ratio", better: "higher", on: "wide_scans", moves: "capacity_rps",
		what: "timed: /api/stats filterSets / filterMasks over the open loop"},
	{name: "cube.group_key_sharing", unit: "ratio", better: "higher", on: "wide_scans", moves: "capacity_rps",
		what: "timed: /api/stats groupKeySets / groupKeyCols over the open loop"},
	{name: "cube.partials_reuse_ratio", unit: "ratio", better: "higher", on: "wide_scans", moves: "capacity_rps",
		what: "timed: /api/stats partialsReused / (reused + allocated) over the open loop"},
	{name: "cube.view_materialize_us_p50", unit: "us", on: "login_churn", moves: "login_p99_ms,query_p99_ms",
		what: "View.Clone + View.Materialize(\"Sales\") on each replayed login's view"},
	{name: "geoidx.radius_us_p50", unit: "us", on: "login_churn", moves: "login_p99_ms,capacity_rps",
		what: "Cube.MembersWithinKm, 5 km around each replayed login's location"},
	{name: "core.session_start_us_p50", unit: "us", on: "login_churn", moves: "capacity_rps",
		what: "Engine.StartSession on each login's inputs, replayed"},
	{name: "core.session_start_us_p99", unit: "us", on: "login_churn", moves: "login_p99_ms", what: "as core.session_start_us_p50"},
	{name: "prml.eval_residual_us_p50", unit: "us", on: "login_churn", moves: "login_p99_ms",
		what: "per login: session start - materialize - radius (rule evaluation and schema clone)"},
	{name: "core.select_us_p50", unit: "us", on: "login_churn", moves: "select_p50_ms", what: "Session.SpatialSelect, replayed"},
	{name: "core.end_session_us_p50", unit: "us", on: "login_churn", moves: "select_p50_ms", what: "Engine.EndSession, replayed"},
	{name: "prml.tracking_fires_per_select", unit: "count", on: "login_churn", moves: "select_p50_ms",
		what: "mean rulesFired per replayed selection"},
	{name: "usermodel.degree_writes", unit: "count", on: "login_churn", moves: "select_p50_ms",
		what: "IntAirportCity firings (one SetContent degree write each) in the measured phases"},
	{name: "runtime.alloc_kb_per_req", unit: "KiB", on: "all", moves: "query_p99_ms,capacity_rps",
		what: "timed: MemStats TotalAlloc delta over the open loop per request"},
	{name: "runtime.gc_per_1k_req", unit: "count", on: "all", moves: "query_p99_ms,capacity_rps",
		what: "timed: MemStats NumGC delta over the open loop per 1000 requests"},
	{name: "obs.trace_overhead_frac", unit: "ratio", on: "all", moves: "none",
		what: "traced / untraced open-loop query_p50_ms - 1"},
	{name: "gen.late_p99_ms", unit: "ms", on: "all", moves: "none",
		what: "how late the generator woke to send an open-loop item (validity, not gated)"},
	{name: "split.query_rt_us_mean", unit: "us", on: "all", moves: "query_p50_ms",
		what: "mean client round trip of traced query requests: the base of the split shares"},
	{name: "split.query_webapi_share", unit: "ratio", on: "all", moves: "query_p50_ms", what: "webapi time / round trip, summed over traced requests"},
	{name: "split.query_qsched_share", unit: "ratio", on: "all", moves: "query_p50_ms", what: "scheduler span time not covered by a scan / round trip"},
	{name: "split.query_cube_share", unit: "ratio", better: "higher", on: "all", moves: "query_p50_ms", what: "scan span time / round trip"},
	{name: "split.query_unattributed_share", unit: "ratio", on: "all", moves: "none", what: "server trace time no span covers / round trip"},
	{name: "split.login_session_start_share", unit: "ratio", better: "higher", on: "login_churn", moves: "capacity_rps",
		what: "core.session_start_us_p50 / traced login_p50_ms"},
}

// measured is one metric's value with the number of samples behind it.
// A metric that is the median of per-round figures also records the
// rounds, so the printed count shows how few samples each round's figure
// rests on.
type measured struct {
	value  float64
	n      int
	rounds int
}

type report map[string]measured

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func (d metricDef) direction() string {
	if d.better == "" {
		return "lower"
	}
	return d.better
}

// runSeconds is the measured time per run BENCHMARK.json asks for.
const runSeconds = 30

// benchmarkSpec renders BENCHMARK.json from the workload and metric
// tables (httpbench -spec prints it).
func benchmarkSpec() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "httpbench/run.sh"}, Paths: []string{"httpbench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.name, d.unit, d.direction(), d.bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.name, d.unit, d.direction()})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	return append(b, '\n'), err
}

// describe prints the metric catalogue: unit, direction, the workloads
// each metric is meant for, the end-to-end metric it should move, and
// how it is measured.
func describe(w io.Writer) {
	for _, set := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end (--trace 0)", endToEnd}, {"end-to-end, printed but not gated", ungated}, {"per-layer (--trace 1)", perLayer}} {
		fmt.Fprintf(w, "%s:\n", set.title)
		for _, d := range set.defs {
			fmt.Fprintf(w, "  %-34s %-6s %-6s on=%s", d.name, d.unit, d.direction(), d.on)
			if d.bound > 0 {
				fmt.Fprintf(w, " bound=%g", d.bound)
			}
			if d.moves != "" {
				fmt.Fprintf(w, " moves=%s", d.moves)
			}
			fmt.Fprintf(w, "\n      %s\n", d.what)
		}
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printMetrics writes one line per metric of defs (label, name, value,
// unit, samples) and returns them for the result line.
func printMetrics(w io.Writer, label string, defs []metricDef, rep report) map[string]jsonValue {
	out := map[string]jsonValue{}
	for _, d := range defs {
		m := rep[d.name]
		fmt.Fprintf(w, "%s %-34s %14.6f %-6s n=%d", label, d.name, m.value, d.unit, m.n)
		if m.rounds > 0 {
			fmt.Fprintf(w, " (%d rounds x ~%d)", m.rounds, m.n/m.rounds)
		}
		fmt.Fprintln(w)
		out[d.name] = jsonValue{Value: m.value, Unit: d.unit}
	}
	return out
}

func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
