// Command httpbench is sdwp's end-to-end HTTP benchmark. It starts the
// engine in-process with cmd/solapd's default options behind
// sdwp.NewHTTPServer on a loopback listener, drives it over HTTP with at
// most two connections, replays every user's requests on a reference
// engine to check each answer, and prints the metrics.
//
// A run sets up three times (setup_s is the median), then measures for
// --seconds in ten rounds, each an open loop at the workload's fixed rate
// (70% of the time; query, login and select latencies, each timed from
// its due time), a closed loop on both connections (30%; capacity_rps)
// and, on workloads without logins in their traffic, login probes. With --trace 1 the run
// instead measures the per-layer split: an open loop on an untraced
// engine, then the same open loop on an engine with TraceSampleRate 1,
// fetching each query's span tree from /api/trace/{id}, and a timed
// replay of the login path's public calls.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer prints the
// request it was on standard error and exits with status 1. A run whose
// load generator fell behind its schedule prints why on standard error
// and exits with status 1 without a result line.
//
// Usage:
//
//	bash httpbench/run.sh --workload wide_scans --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"sdwp"
)

const (
	setupRuns  = 3
	rounds     = 10  // measured rounds of an end-to-end run
	openShare  = 0.7 // of --seconds; the closed loop gets the rest
	maxFailLog = 20  // failed requests printed on standard error
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: wide_scans or login_churn")
		seed    = flag.Int64("seed", 1, "seed of the data, locations, query shapes and schedule")
		seconds = flag.Int("seconds", runSeconds, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = per-layer run with tracing, 0 = end-to-end run")
		out     = flag.String("out", ".bench_build/traces", "directory the traced run writes its spans to")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		desc    = flag.Bool("describe", false, "print the metric catalogue and the workloads and exit")
	)
	flag.Parse()
	if *spec {
		b, err := benchmarkSpec()
		if err != nil {
			fmt.Fprintln(os.Stderr, "httpbench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}
	if *desc {
		describe(os.Stdout)
		for _, w := range workloads {
			fmt.Printf("workload %s: %s\n", w.name, w.why)
		}
		fmt.Printf("engine (all workloads): %+v\n", engineOptions(false))
		return
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: httpbench --workload wide_scans|login_churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, seconds: float64(*seconds), out: *out}
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	o := engineOptions(*trace == 1)
	fmt.Printf("engine coalesceWindow=%s resultCacheBytes=%d queryWorkers=%d factShards=%d artifactCacheBytes=%d traceSampleRate=%g rules=paper threshold=%d\n",
		o.CoalesceWindow, o.ResultCacheBytes, o.QueryWorkers, o.FactShards, o.ArtifactCacheBytes, o.TraceSampleRate, threshold)
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.timed()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "httpbench:", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "httpbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

type bench struct {
	w       *workloadSpec
	seed    int64
	seconds float64
	out     string
	in      *inputs

	attempted, failed int
	wrong             int
}

// instance is one set-up SUT with its load generator.
type instance struct {
	sut   *sut
	run   *runner
	setup time.Duration
}

func (i *instance) close() {
	i.run.close()
	i.sut.close()
}

// setUp builds a SUT and brings it to its measured state: set-up logins
// (for churn, managers warmed past the threshold) and a closed-loop
// warm-up. The inputs are drawn from the first set-up's warehouse; the
// time that takes is not set-up time.
func (b *bench) setUp(traced bool) (*instance, error) {
	t0 := time.Now()
	e, ds, err := newEngine(b.w, b.seed, engineOptions(traced))
	if err != nil {
		return nil, err
	}
	var gen time.Duration
	if b.in == nil {
		g0 := time.Now()
		b.in = newInputs(b.w, b.seed, ds.CityLocs, openShare*b.seconds)
		gen = time.Since(g0)
	}
	s, err := startSUT(e)
	if err != nil {
		e.Close()
		return nil, err
	}
	r := newRunner(s, b.w, traced)
	r.sequential(b.in.setup, phSetup)
	warm := b.in.warm
	r.closedLoop(phWarm, func(i int) (item, bool) {
		if i >= len(warm) {
			return item{}, false
		}
		return warm[i], true
	})
	return &instance{sut: s, run: r, setup: time.Since(t0) - gen}, nil
}

// check replays the instance's requests on a fresh reference engine and
// accounts every request as attempted, failed or wrong.
func (b *bench) check(inst *instance, timedReplay bool) (*verdict, error) {
	ref, err := newReference(b.w, b.seed, timedReplay)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	defer ref.engine.Close()
	v := ref.replay(inst.run.byUser)
	b.attempted += len(inst.run.all)
	b.failed += len(v.failed)
	b.wrong += v.wrong
	var bad []*record
	for rec := range v.failed {
		bad = append(bad, rec)
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].start.Before(bad[j].start) })
	for i, rec := range bad {
		if i == maxFailLog {
			fmt.Fprintf(os.Stderr, "httpbench: … %d more failed requests\n", len(bad)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "httpbench: %s seed %d: %s: %s\n", b.w.name, b.seed, rec, v.failed[rec])
	}
	return v, nil
}

func (b *bench) result(metrics map[string]jsonValue) result {
	fmt.Printf("answers attempted=%d failed=%d wrong=%d failed_frac=%.6f\n",
		b.attempted, b.failed, b.wrong, ratio(float64(b.failed), float64(b.attempted)))
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
}

// window snapshots the scheduler and runtime counters around a phase.
type window struct {
	stats sdwp.SchedulerStats
	mem   runtime.MemStats
}

func snapshot(inst *instance) (window, error) {
	var w window
	if err := inst.run.clients[0].getJSON("/api/stats", &w.stats); err != nil {
		return w, err
	}
	runtime.ReadMemStats(&w.mem)
	return w, nil
}

// timed is the end-to-end run (--trace 0).
func (b *bench) timed() (result, error) {
	var (
		inst         *instance
		setups, heap []float64
	)
	for k := 0; k < setupRuns; k++ {
		if inst != nil {
			// Only the last set-up is measured on; the others' set-up
			// requests are checked all the same.
			inst.close()
			if _, err := b.check(inst, false); err != nil {
				return result{}, err
			}
			inst = nil
		}
		runtime.GC() // the last set-up's and reference's garbage is not this set-up's work
		var err error
		if inst, err = b.setUp(false); err != nil {
			return result{}, err
		}
		setups = append(setups, inst.setup.Seconds())
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		heap = append(heap, float64(mem.HeapAlloc)/(1<<20))
	}

	// The measured window alternates open- and closed-loop segments (and
	// a share of the login probes) over several rounds, so a burst of
	// outside noise spoils one round, not one metric; capacity and the
	// p99 latencies are medians over the rounds.
	var (
		late       []time.Duration
		capacities []float64
		okTotal    int
		n          = len(b.in.open)
		closedDur  = time.Duration((1 - openShare) * b.seconds / rounds * float64(time.Second))
	)
	for r := 0; r < rounds; r++ {
		inst.run.round = r
		late = append(late, inst.run.openLoop(b.in.open[r*n/rounds:(r+1)*n/rounds], b.w.rate)...)
		deadline := time.Now().Add(closedDur)
		okReqs, elapsed := inst.run.closedLoop(phClosed, func(int) (item, bool) {
			if time.Now().After(deadline) {
				return item{}, false
			}
			return b.in.closed.item(), true
		})
		capacities = append(capacities, float64(okReqs)/elapsed.Seconds())
		okTotal += okReqs
		inst.run.sequential(b.in.probe[r*len(b.in.probe)/rounds:(r+1)*len(b.in.probe)/rounds], phProbe)
	}
	inst.close()
	v, err := b.check(inst, false)
	if err != nil {
		return result{}, err
	}
	rep := report{
		"setup_s":      {value: quantile(setups, 0.5), n: len(setups)},
		"heap_mb":      {value: quantile(heap, 0.5), n: len(heap)},
		"capacity_rps": {value: quantile(capacities, 0.5), n: okTotal, rounds: len(capacities)},
	}
	b.latencies(rep, inst.run.all)
	b.properties(inst.run.all, v)
	if _, err := b.lateness(late); err != nil {
		return result{}, err
	}
	printMetrics(os.Stdout, "ungated", ungated, rep)
	return b.result(printMetrics(os.Stdout, "metric", endToEnd, rep)), nil
}

// latencies adds the query, login and select latency metrics: queries
// from the open loop, logins and selects from the open loop on churn and
// from the probes elsewhere. A p50 pools every sample; a p99 is the
// median of the rounds' p99s.
func (b *bench) latencies(rep report, recs []*record) {
	lat := map[opKind][]float64{}
	byRound := map[opKind]map[int][]float64{}
	for _, rec := range recs {
		if !rec.ok() {
			continue
		}
		k := rec.op.kind
		if k == opBatch {
			k = opQuery
		}
		want := phOpen
		if (k == opLogin || k == opSelect) && !b.w.churn {
			want = phProbe
		}
		if rec.phase == want {
			l := ms(rec.latency())
			lat[k] = append(lat[k], l)
			if byRound[k] == nil {
				byRound[k] = map[int][]float64{}
			}
			byRound[k][rec.round] = append(byRound[k][rec.round], l)
		}
	}
	for k, name := range map[opKind]string{opQuery: "query", opLogin: "login", opSelect: "select"} {
		var p99s []float64
		for _, xs := range byRound[k] {
			p99s = append(p99s, quantile(xs, 0.99))
		}
		rep[name+"_p50_ms"] = measured{value: quantile(lat[k], 0.5), n: len(lat[k])}
		rep[name+"_p99_ms"] = measured{value: quantile(p99s, 0.5), n: len(lat[k]), rounds: len(p99s)}
	}
}

// lateness returns the generator's p99 lateness in ms, and an error that
// makes the run invalid when the generator itself fell behind: when its
// p99 lateness reaches the gap between two due times (1/rate), so that it
// no longer offers the workload's rate. A smaller lateness, such as a
// wake-up delayed by a handler holding both Ps, leaves the offered rate
// intact, and since latencies count from the due time it is charged to
// the reported latency rather than hidden.
func (b *bench) lateness(late []time.Duration) (float64, error) {
	xs := make([]float64, len(late))
	for i, l := range late {
		xs[i] = ms(l)
	}
	p99 := quantile(xs, 0.99)
	limit := 1e3 / b.w.rate
	fmt.Printf("validity: generator p99 lateness %.3f ms, limit %.3f ms\n", p99, limit)
	if p99 >= limit {
		return p99, fmt.Errorf("invalid run: the load generator fell behind (p99 lateness %.3f ms >= the %.3f ms between due times)", p99, limit)
	}
	return p99, nil
}

// properties prints what the generated inputs did to the program: the
// share of requests repeating an earlier one, the mean share of visible
// facts in personalized views and the share of empty ones, the share of
// baseline tiles, and how many measured logins fired TrainAirportCity.
func (b *bench) properties(recs []*record, v *verdict) {
	seen := map[string]bool{}
	var reqs, repeats, tiles, baseline int
	for _, rec := range recs {
		o := rec.op
		if o.kind != opQuery && o.kind != opBatch {
			continue
		}
		key := o.user + string(o.spec)
		if measuredPhase(rec) {
			reqs++
			if seen[key] {
				repeats++
			}
			qs := o.batch
			if o.kind == opQuery {
				qs = []querySpec{*o.query}
			}
			for _, q := range qs {
				tiles++
				if q.Baseline {
					baseline++
				}
			}
		}
		seen[key] = true
	}
	var vis []float64
	empty, train := 0, 0
	for _, lf := range v.logins {
		vis = append(vis, lf.visible)
		if lf.visible == 0 {
			empty++
		}
		if lf.train && measuredPhase(lf.rec) {
			train++
		}
	}
	fmt.Printf("property repeat_share=%.4f visible_share_mean=%.4f empty_view_share=%.4f baseline_tile_share=%.4f train_airport_logins=%d\n",
		ratio(float64(repeats), float64(reqs)), mean(vis), ratio(float64(empty), float64(len(vis))),
		ratio(float64(baseline), float64(tiles)), train)
}

func requests(items []item) int {
	n := 0
	for _, it := range items {
		n += len(it.ops)
	}
	return n
}

// timedLayers derives the per-layer metrics the scheduler and runtime
// counters give over a phase of reqs requests.
func timedLayers(w0, w1 window, reqs int) report {
	d := func(a, b int64) float64 { return float64(b - a) }
	s0, s1 := w0.stats, w1.stats
	hits, misses := d(s0.CacheHits, s1.CacheHits), d(s0.CacheMisses, s1.CacheMisses)
	reused, alloc := d(s0.PartialsReused, s1.PartialsReused), d(s0.PartialsAllocated, s1.PartialsAllocated)
	n := int(d(s0.Submitted, s1.Submitted))
	return report{
		"qsched.cache_hit_ratio":    {value: ratio(hits, hits+misses), n: n},
		"qsched.queries_per_scan":   {value: ratio(d(s0.Executed, s1.Executed), d(s0.FactScans, s1.FactScans)), n: n},
		"qsched.dedup_share":        {value: ratio(d(s0.Shared, s1.Shared), d(s0.Submitted, s1.Submitted)), n: n},
		"cube.filter_mask_sharing":  {value: ratio(d(s0.FilterSets, s1.FilterSets), d(s0.FilterMasks, s1.FilterMasks)), n: n},
		"cube.group_key_sharing":    {value: ratio(d(s0.GroupKeySets, s1.GroupKeySets), d(s0.GroupKeyCols, s1.GroupKeyCols)), n: n},
		"cube.partials_reuse_ratio": {value: ratio(reused, reused+alloc), n: n},
		"runtime.alloc_kb_per_req":  {value: ratio(float64(w1.mem.TotalAlloc-w0.mem.TotalAlloc)/1024, float64(reqs)), n: reqs},
		"runtime.gc_per_1k_req":     {value: ratio(1000*float64(w1.mem.NumGC-w0.mem.NumGC), float64(reqs)), n: reqs},
	}
}

// traced is the per-layer run (--trace 1).
func (b *bench) traced() (result, error) {
	// Untraced engine: the timed per-layer counters and the baseline of
	// the tracing overhead.
	inst, err := b.setUp(false)
	if err != nil {
		return result{}, err
	}
	w0, err := snapshot(inst)
	if err != nil {
		inst.close()
		return result{}, err
	}
	late := inst.run.openLoop(b.in.open, b.w.rate)
	w1, err := snapshot(inst)
	inst.close()
	if err != nil {
		return result{}, err
	}
	if _, err := b.check(inst, false); err != nil {
		return result{}, err
	}
	rep := timedLayers(w0, w1, requests(b.in.open))
	untraced := report{}
	b.latencies(untraced, inst.run.all)
	lateP99, err := b.lateness(late)
	if err != nil {
		return result{}, err
	}
	rep["gen.late_p99_ms"] = measured{value: lateP99, n: len(late)}
	runtime.GC()

	// Traced engine: the same open loop with every query's span tree
	// fetched, then the probes, then a timed replay of the login path.
	inst, err = b.setUp(true)
	if err != nil {
		return result{}, err
	}
	inst.run.openLoop(b.in.open, b.w.rate)
	inst.run.sequential(b.in.probe, phProbe)
	compiles := batchCompiles(inst.sut.engine.Cube(), inst.run.all)
	inst.close()
	v, err := b.check(inst, true)
	if err != nil {
		return result{}, err
	}
	traced := report{}
	b.latencies(traced, inst.run.all)
	rep["obs.trace_overhead_frac"] = measured{value: ratio(traced["query_p50_ms"].value, untraced["query_p50_ms"].value) - 1, n: traced["query_p50_ms"].n}
	spans := b.queryLayers(rep, inst.run.all, compiles)
	spans = append(spans, b.loginLayers(rep, v, traced)...)
	b.properties(inst.run.all, v)
	path, err := writeSpans(b.out, fmt.Sprintf("%s-seed%d", b.w.name, b.seed), spans)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("spans %d written to %s\n", len(spans), path)
	return b.result(printMetrics(os.Stdout, "metric", perLayer, rep)), nil
}

// measuredPhase reports whether a request belongs to the measured part
// of the run (not set-up or warm-up).
func measuredPhase(rec *record) bool { return rec.phase != phSetup && rec.phase != phWarm }

// batchCompiles times Cube.Compile on the SUT's cube for the queries of
// each open-loop batch request, summed per request: the scheduler's
// batch path records no compile span.
func batchCompiles(c *sdwp.Cube, recs []*record) []float64 {
	var out []float64
	for _, rec := range recs {
		if rec.phase != phOpen || rec.op.kind != opBatch {
			continue
		}
		var d time.Duration
		for _, q := range rec.op.batch {
			cq := q.toQuery()
			t0 := time.Now()
			if _, err := c.Compile(cq); err != nil {
				return nil // the replay reports the query
			}
			d += time.Since(t0)
		}
		out = append(out, us(d))
	}
	return out
}

// queryLayers adds the query-path per-layer metrics of the traced open
// loop and returns its spans. batchCompiles stands in for the compile
// spans batch requests lack.
func (b *bench) queryLayers(rep report, recs []*record, batchCompiles []float64) []span {
	var (
		spans                                  []span
		residual, admission, compile, finalize []float64
		scan                                   []float64
		stages                                 [len(stageAttrs)][]float64
		rt, webapi, qsched, cubeT, unattr      float64
		traced, queries                        int
		bytes, scanned, matched                float64
	)
	for _, rec := range recs {
		if rec.phase != phOpen || (rec.op.kind != opQuery && rec.op.kind != opBatch) || !rec.ok() {
			continue
		}
		results, err := decodeResults(rec)
		if err != nil {
			continue // counted as a wrong answer by the replay
		}
		queries += len(results)
		bytes += float64(len(rec.body))
		for _, r := range results {
			scanned += float64(r.ScannedFacts)
			matched += float64(r.MatchedFacts)
		}
		if rec.trace == nil {
			continue
		}
		sp := splitQuery(rec)
		spans = append(spans, querySpans(rec, sp)...)
		traced++
		residual = append(residual, us(sp.webapi))
		rt += float64(sp.rt)
		webapi += float64(sp.webapi)
		qsched += float64(sp.qsched)
		cubeT += float64(sp.cube)
		unattr += float64(sp.unattributed)
		if sp.admissions > 0 {
			admission = append(admission, us(sp.admission))
		}
		if sp.compile > 0 {
			compile = append(compile, us(sp.compile))
		}
		if sp.scans > 0 {
			finalize = append(finalize, us(sp.finalize))
			scan = append(scan, us(sp.scan))
			for k := range stages {
				stages[k] = append(stages[k], us(sp.stageRaw[k]))
			}
		}
	}
	p50 := func(xs []float64) measured { return measured{value: quantile(xs, 0.5), n: len(xs)} }
	rep["webapi.residual_us_p50"] = p50(residual)
	rep["webapi.resp_bytes_per_query"] = measured{value: ratio(bytes, float64(queries)), n: queries}
	rep["qsched.admission_wait_us_p50"] = p50(admission)
	rep["qsched.admission_wait_us_p99"] = measured{value: quantile(admission, 0.99), n: len(admission)}
	if len(compile) == 0 {
		compile = batchCompiles
	}
	rep["qsched.compile_us_p50"] = p50(compile)
	rep["qsched.finalize_us_p50"] = p50(finalize)
	rep["cube.scan_us_p50"] = p50(scan)
	for k, name := range []string{"filter_mask", "group_decode", "accumulate", "merge"} {
		rep["cube."+name+"_us_p50"] = p50(stages[k])
	}
	rep["cube.facts_scanned_per_query"] = measured{value: ratio(scanned, float64(queries)), n: queries}
	rep["cube.matched_per_scanned"] = measured{value: ratio(matched, scanned), n: queries}
	rep["split.query_rt_us_mean"] = measured{value: ratio(rt, float64(traced)) / 1e3, n: traced}
	rep["split.query_webapi_share"] = measured{value: ratio(webapi, rt), n: traced}
	rep["split.query_qsched_share"] = measured{value: ratio(qsched, rt), n: traced}
	rep["split.query_cube_share"] = measured{value: ratio(cubeT, rt), n: traced}
	rep["split.query_unattributed_share"] = measured{value: ratio(unattr, rt), n: traced}
	return spans
}

// loginLayers adds the login-path per-layer metrics of the timed replay
// and returns its spans.
func (b *bench) loginLayers(rep report, v *verdict, traced report) []span {
	var (
		spans                                        []span
		start, radius, mater, diff, resid, sel, ends []float64
		fires, writes                                float64
	)
	for _, lf := range v.logins {
		if !measuredPhase(lf.rec) {
			continue
		}
		spans = append(spans, loginSpans(lf)...)
		start = append(start, us(lf.start))
		radius = append(radius, us(lf.radius))
		mater = append(mater, us(lf.mater))
		diff = append(diff, us(lf.schemaDiff))
		resid = append(resid, us(lf.start-lf.mater-lf.radius))
	}
	for _, sf := range v.selects {
		if !measuredPhase(sf.rec) {
			continue
		}
		sel = append(sel, us(sf.dur))
		fires += float64(len(sf.fired))
		for _, r := range sf.fired {
			if r == "IntAirportCity" {
				writes++
			}
		}
	}
	for _, d := range v.ends {
		ends = append(ends, us(d))
	}
	p50 := func(xs []float64) measured { return measured{value: quantile(xs, 0.5), n: len(xs)} }
	rep["core.session_start_us_p50"] = p50(start)
	rep["core.session_start_us_p99"] = measured{value: quantile(start, 0.99), n: len(start)}
	rep["geoidx.radius_us_p50"] = p50(radius)
	rep["cube.view_materialize_us_p50"] = p50(mater)
	rep["webapi.schema_diff_us_p50"] = p50(diff)
	rep["prml.eval_residual_us_p50"] = p50(resid)
	rep["core.select_us_p50"] = p50(sel)
	rep["core.end_session_us_p50"] = p50(ends)
	rep["prml.tracking_fires_per_select"] = measured{value: ratio(fires, float64(len(sel))), n: len(sel)}
	rep["usermodel.degree_writes"] = measured{value: writes, n: len(sel)}
	login := traced["login_p50_ms"]
	rep["split.login_session_start_share"] = measured{value: ratio(quantile(start, 0.5)/1e3, login.value), n: login.n}
	return spans
}

// decodeResults decodes a query or batch answer.
func decodeResults(rec *record) ([]*sdwp.Result, error) {
	if rec.op.kind == opQuery {
		var r sdwp.Result
		err := json.Unmarshal(rec.body, &r)
		return []*sdwp.Result{&r}, err
	}
	var br struct{ Results []*sdwp.Result }
	if err := json.Unmarshal(rec.body, &br); err != nil {
		return nil, err
	}
	for _, r := range br.Results {
		if r == nil {
			return nil, errors.New("null result")
		}
	}
	return br.Results, nil
}
