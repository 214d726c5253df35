package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"sdwp"
	"sdwp/internal/obs"
	"sdwp/internal/prml"
)

// referenceOptions configure the deliberately simple reference engine the
// answers are checked against: no scheduler (so no coalescing or result
// cache), unpacked scalar columns, per-query evaluation.
func referenceOptions() sdwp.EngineOptions {
	return sdwp.EngineOptions{
		DisableScheduler: true,
		PackedColumns:    sdwp.PackedColumnsOff,
		SharedSubexpr:    sdwp.SharedSubexprOff,
	}
}

// answerDiff reports how an HTTP query answer differs from the reference
// result, comparing everything but the cost vector exactly (as the
// engine's sameAnswer test helpers do); "" when they agree.
func answerDiff(body []byte, want *sdwp.Result) string {
	var got sdwp.Result
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Sprintf("undecodable answer: %v", err)
	}
	return resultDiff(&got, want)
}

// batchDiff is answerDiff for a /api/query/batch response.
func batchDiff(body []byte, want []*sdwp.Result) string {
	var got struct{ Results []*sdwp.Result }
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Sprintf("undecodable answer: %v", err)
	}
	if len(got.Results) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got.Results), len(want))
	}
	for i := range want {
		if got.Results[i] == nil {
			return fmt.Sprintf("tile %d: null result", i)
		}
		if d := resultDiff(got.Results[i], want[i]); d != "" {
			return fmt.Sprintf("tile %d: %s", i, d)
		}
	}
	return ""
}

func resultDiff(got, want *sdwp.Result) string {
	g, w := *got, *want
	g.Cost, w.Cost = obs.QueryCost{}, obs.QueryCost{}
	gb, err1 := json.Marshal(&g)
	wb, err2 := json.Marshal(&w)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("unencodable result: %v %v", err1, err2)
	}
	if bytes.Equal(gb, wb) {
		return ""
	}
	i := 0
	for i < len(gb) && i < len(wb) && gb[i] == wb[i] {
		i++
	}
	return fmt.Sprintf("answer differs at byte %d: got …%s…, want …%s…", i, excerpt(gb, i), excerpt(wb, i))
}

func excerpt(b []byte, at int) string {
	lo, hi := max(0, at-40), min(len(b), at+40)
	return string(b[lo:hi])
}

// sameStrings compares string lists, treating nil and empty alike (the
// wire omits empty lists).
func sameStrings(a, b []string) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// reference replays each user's operations on a second engine, built from
// the same seed with referenceOptions, and checks every HTTP answer.
type reference struct {
	engine *sdwp.Engine
	cube   *sdwp.Cube
	facts  int
	// timed records the public login-path calls as benchmark-side spans
	// (traced run; the replay is then sequential).
	timed bool
}

func newReference(w *workloadSpec, seed int64, timed bool) (*reference, error) {
	e, ds, err := newEngine(w, seed, referenceOptions())
	if err != nil {
		return nil, err
	}
	buildSpatialIndexes(ds.Cube)
	return &reference{engine: e, cube: ds.Cube, facts: ds.Cube.FactData("Sales").Len(), timed: timed}, nil
}

// buildSpatialIndexes makes the cube build its lazily built R-trees now.
// The cube builds them on first use without synchronization, so the first
// radius queries of two concurrent sessions race (go test -race shows it
// in the parallel replay); the benchmark's server side never races there
// because its set-up logins run one at a time.
func buildSpatialIndexes(c *sdwp.Cube) {
	origin := sdwp.Pt(0, 0)
	none := func(int32) bool { return false }
	for _, l := range [][2]string{{"Store", "Store"}, {"Store", "City"}, {"Customer", "Customer"}} {
		_ = c.MembersWithinKm(l[0], l[1], origin, 0, none) // a level without geometry has no index to build
	}
	for _, name := range c.Layers() {
		_ = c.LayerObjectsWithinKm(name, origin, 0, none) // every listed layer exists
	}
}

// verdict is the outcome of a replay.
type verdict struct {
	failed  map[*record]string // request → why it failed or was wrong
	wrong   int                // answers that differ from the reference
	logins  []loginFacts
	selects []selectFacts
	ends    []time.Duration // Engine.EndSession per logout
}

// loginFacts describes one replayed login and, when timing, its
// benchmark-side spans.
type loginFacts struct {
	rec        *record
	visible    float64 // share of facts the personalized view shows
	train      bool    // TrainAirportCity fired (the Train layer was added)
	at         time.Time
	start      time.Duration // Engine.StartSession
	radius     time.Duration // Cube.MembersWithinKm, 5 km
	mater      time.Duration // View.Clone + View.Materialize("Sales")
	schemaDiff time.Duration // Schema.Diff
}

// selectFacts describes one replayed selection.
type selectFacts struct {
	rec   *record
	fired []string
	dur   time.Duration // Session.SpatialSelect
}

// replay checks every user's requests, users spread over two goroutines
// (one when timing spans).
func (ref *reference) replay(byUser map[string][]*record) *verdict {
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)
	workers := 2
	if ref.timed {
		workers = 1
	}
	parts := make([]*verdict, workers)
	var wg sync.WaitGroup
	for k := range parts {
		parts[k] = &verdict{failed: map[*record]string{}}
		wg.Add(1)
		go func(v *verdict, k int) {
			defer wg.Done()
			for i := k; i < len(users); i += workers {
				ref.replayUser(v, byUser[users[i]])
			}
		}(parts[k], k)
	}
	wg.Wait()
	out := &verdict{failed: map[*record]string{}}
	for _, p := range parts {
		for r, why := range p.failed {
			out.failed[r] = why
		}
		out.wrong += p.wrong
		out.logins = append(out.logins, p.logins...)
		out.selects = append(out.selects, p.selects...)
		out.ends = append(out.ends, p.ends...)
	}
	return out
}

// replayUser replays one user's requests in the order the server
// completed them. Queries of one session never change it, so only the
// order of logins, selections and logouts matters, and the runner
// serializes those per user.
func (ref *reference) replayUser(v *verdict, recs []*record) {
	var (
		sess *sdwp.Session
		memo = map[string]*sdwp.Result{} // query → answer for the current view
	)
	fail := func(rec *record, wrong bool, format string, args ...any) {
		if _, dup := v.failed[rec]; !dup && wrong {
			v.wrong++
		}
		v.failed[rec] = fmt.Sprintf(format, args...)
	}
	for _, rec := range recs {
		o := rec.op
		if rec.err != nil {
			fail(rec, false, "transport error: %v", rec.err)
		}
		// status reports whether both engines answered, so the answers
		// can be compared. The workloads send no request that should fail,
		// so a transport error, a non-2xx reply and a reference error each
		// fail the request, also when both engines reject it.
		status := func(refErr error) bool {
			switch {
			case rec.err != nil: // failed above
			case refErr != nil:
				fail(rec, rec.ok(), "reference engine rejects it (%v); status %d: %s", refErr, rec.status, excerpt(rec.body, 0))
			case rec.status != http.StatusOK:
				fail(rec, false, "status %d: %s", rec.status, excerpt(rec.body, 0))
			default:
				return true
			}
			return false
		}
		switch o.kind {
		case opLogin:
			loc, err := sdwp.ParseWKT(o.wkt)
			if err != nil {
				fail(rec, false, "bad location %q: %v", o.wkt, err)
				continue
			}
			t0 := time.Now()
			s, err := ref.engine.StartSession(o.user, loc)
			lf := loginFacts{rec: rec, at: t0, start: time.Since(t0)}
			if err == nil {
				sess, memo = s, map[string]*sdwp.Result{}
				ref.loginFacts(&lf, s, loc)
			}
			v.logins = append(v.logins, lf)
			if !status(err) {
				continue
			}
			var resp struct {
				Session    string
				SchemaDiff []string
			}
			if err := json.Unmarshal(rec.body, &resp); err != nil || resp.Session == "" {
				fail(rec, true, "login answer %q has no session", excerpt(rec.body, 0))
				continue
			}
			want := s.Schema().Diff(ref.cube.Schema())
			if !sameStrings(resp.SchemaDiff, want) {
				fail(rec, true, "schemaDiff %q, reference says %q", resp.SchemaDiff, want)
			}
		case opSelect:
			if sess == nil {
				fail(rec, false, "select without a session")
				continue
			}
			t0 := time.Now()
			res, err := sess.SpatialSelect(selectTarget, selectPredicate)
			sf := selectFacts{rec: rec, dur: time.Since(t0)}
			memo = map[string]*sdwp.Result{}
			if !status(err) {
				continue
			}
			sf.fired = res.RulesFired
			v.selects = append(v.selects, sf)
			var resp struct {
				Selected   []string
				RulesFired []string
			}
			if err := json.Unmarshal(rec.body, &resp); err != nil {
				fail(rec, true, "undecodable select answer: %v", err)
				continue
			}
			want := make([]string, len(res.Selected))
			for i, inst := range res.Selected {
				want[i] = ref.instanceName(inst)
			}
			if !sameStrings(resp.Selected, want) {
				fail(rec, true, "selected %q, reference says %q", resp.Selected, want)
			} else if !sameStrings(resp.RulesFired, res.RulesFired) {
				fail(rec, true, "rulesFired %q, reference says %q", resp.RulesFired, res.RulesFired)
			}
		case opQuery:
			if sess == nil {
				fail(rec, false, "query without a session")
				continue
			}
			key := string(o.spec)
			want, ok := memo[key]
			var err error
			if !ok {
				q := o.query.toQuery()
				if o.query.Baseline {
					want, err = sess.QueryBaseline(q)
				} else {
					want, err = sess.Query(q)
				}
				if err == nil {
					memo[key] = want
				}
			}
			if status(err) {
				if d := answerDiff(rec.body, want); d != "" {
					fail(rec, true, "%s", d)
				}
			}
		case opBatch:
			if sess == nil {
				fail(rec, false, "batch without a session")
				continue
			}
			qs := make([]sdwp.Query, len(o.batch))
			base := make([]bool, len(o.batch))
			for i, q := range o.batch {
				qs[i], base[i] = q.toQuery(), q.Baseline
			}
			want, err := sess.QueryBatch(qs, base)
			if status(err) {
				if d := batchDiff(rec.body, want); d != "" {
					fail(rec, true, "%s", d)
				}
			}
		case opLogout:
			if sess == nil {
				fail(rec, false, "logout without a session")
				continue
			}
			t0 := time.Now()
			err := ref.engine.EndSession(sess)
			v.ends = append(v.ends, time.Since(t0))
			sess = nil
			if status(err) && strings.TrimSpace(string(rec.body)) != `{"ok":true}` {
				fail(rec, true, "logout answer %q", rec.body)
			}
		}
	}
}

// loginFacts measures the replayed login's view and, when timing, the
// public login-path calls on the same inputs: the R-tree radius lookup
// the 5kmStores rule plans, the view's fact-mask materialization on a
// clone, and the schema diff the login handler computes.
func (ref *reference) loginFacts(lf *loginFacts, s *sdwp.Session, loc sdwp.Geometry) {
	if m := s.View().Materialize("Sales"); m != nil {
		lf.visible = float64(m.Count()) / float64(ref.facts)
	} else {
		lf.visible = 1
	}
	_, lf.train = s.Schema().Layer("Train")
	if !ref.timed {
		return
	}
	t0 := time.Now()
	// The callback only counts; the lookup itself is what is timed.
	_ = ref.cube.MembersWithinKm("Store", "Store", loc, 5, func(int32) bool { return true })
	lf.radius = time.Since(t0)
	t1 := time.Now()
	s.View().Clone().Materialize("Sales")
	lf.mater = time.Since(t1)
	t2 := time.Now()
	s.Schema().Diff(ref.cube.Schema())
	lf.schemaDiff = time.Since(t2)
}

// instanceName renders a selected instance as the HTTP layer names it.
func (ref *reference) instanceName(inst prml.Instance) string {
	switch inst.Kind {
	case prml.InstMember:
		if dd := ref.cube.Dimension(inst.Dimension); dd != nil {
			if ld := dd.Level(inst.Level); ld != nil && int(inst.Index) < ld.Len() {
				return ld.Name(inst.Index)
			}
		}
	case prml.InstLayerObject:
		if ld := ref.cube.Layer(inst.Layer); ld != nil && int(inst.Index) < ld.Len() {
			return ld.Name(inst.Index)
		}
	}
	return inst.String()
}
