package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"sdwp"
)

// opKind is the HTTP endpoint one benchmark operation calls.
type opKind int

const (
	opLogin  opKind = iota // POST /api/login
	opSelect               // POST /api/select
	opQuery                // POST /api/query
	opBatch                // POST /api/query/batch
	opLogout               // POST /api/logout
)

var opNames = [...]string{"login", "select", "query", "batch", "logout"}

func (k opKind) String() string { return opNames[k] }

// The spatial selection every manager lifecycle makes: the paper's
// IntAirportCity tracking-rule event (cities within 20 km of an airport).
const (
	selectTarget    = "GeoMD.Store.City"
	selectPredicate = "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km"
)

// op is one HTTP request of a workload. Sessions are named by user: the
// runner maps a user to the token of their live session.
type op struct {
	kind  opKind
	user  string
	wkt   string      // opLogin: the session location
	query *querySpec  // opQuery
	batch []querySpec // opBatch
	spec  []byte      // opQuery/opBatch: the marshalled query (without session)
}

// item is one unit of scheduled work: a single request, or a session
// lifecycle whose operations run back to back on one connection.
type item struct{ ops []op }

// stateful reports whether the item changes a session (login, select or
// logout), so it must not overlap another item of the same user.
func (it item) stateful() bool {
	for _, o := range it.ops {
		if o.kind != opQuery && o.kind != opBatch {
			return true
		}
	}
	return false
}

// querySpec is the wire form of one OLAP query, as /api/query and the
// entries of /api/query/batch take it.
type querySpec struct {
	Fact       string       `json:"fact"`
	GroupBy    []levelRef   `json:"groupBy,omitempty"`
	Aggregates []measureAgg `json:"aggregates"`
	Filters    []attrFilter `json:"filters,omitempty"`
	Baseline   bool         `json:"baseline,omitempty"`
}

type levelRef struct {
	Dimension string `json:"dimension"`
	Level     string `json:"level"`
}

type measureAgg struct {
	Measure string `json:"measure,omitempty"`
	Agg     string `json:"agg"`
}

type attrFilter struct {
	Dimension string `json:"dimension"`
	Level     string `json:"level"`
	Attr      string `json:"attr"`
	Op        string `json:"op"`
	Value     any    `json:"value"` // float64 or string, as the server decodes it
}

var filterOps = map[string]sdwp.FilterOp{
	"=": sdwp.OpEq, "<>": sdwp.OpNe, "<": sdwp.OpLt,
	"<=": sdwp.OpLe, ">": sdwp.OpGt, ">=": sdwp.OpGe,
}

var aggs = map[string]sdwp.MeasureAgg{
	"SUM": {Agg: sdwp.SUM}, "COUNT": {Agg: sdwp.COUNT}, "AVG": {Agg: sdwp.AVG},
	"MIN": {Agg: sdwp.MIN}, "MAX": {Agg: sdwp.MAX},
}

// toQuery converts the wire query into the engine's query, the way the
// HTTP layer does, for the reference replay.
func (q querySpec) toQuery() sdwp.Query {
	out := sdwp.Query{Fact: q.Fact}
	for _, g := range q.GroupBy {
		out.GroupBy = append(out.GroupBy, sdwp.LevelRef{Dimension: g.Dimension, Level: g.Level})
	}
	for _, a := range q.Aggregates {
		ma := aggs[a.Agg]
		ma.Measure = a.Measure
		out.Aggregates = append(out.Aggregates, ma)
	}
	for _, f := range q.Filters {
		out.Filters = append(out.Filters, sdwp.AttrFilter{
			LevelRef: sdwp.LevelRef{Dimension: f.Dimension, Level: f.Level},
			Attr:     f.Attr, Op: filterOps[f.Op], Value: f.Value,
		})
	}
	return out
}

// workloadSpec fixes one workload: its warehouse, users and traffic.
type workloadSpec struct {
	name        string
	why         string
	facts       int
	stores      int
	managers    int
	accountants int
	// rate is the open-loop offered rate in items per second: about half
	// the workload's capacity_rps (in items) at the commit that added the
	// benchmark, so the open-loop phase measures latency, not saturation.
	rate float64
	// warm is the number of closed-loop items run at the end of set-up.
	warm int
	// probes is the number of login → 5 × select → logout lifecycles of
	// fresh managers, spread over the measured rounds after their
	// closed-loop segments, giving the login and select latencies on
	// workloads whose traffic has no logins (0 = none).
	probes int
	// churn marks the session-lifecycle workload; otherwise every set-up
	// user keeps one session open for the whole run and each request is
	// an 8-tile /api/query/batch.
	churn bool
}

var workloads = []*workloadSpec{
	{
		name:  "wide_scans",
		why:   "1M facts, 8 sessions, 8-tile /api/query/batch (half full-table) with per-request filters at 16/s: cube scan stages and sharing dominate",
		facts: 1_000_000, stores: 2000, managers: 4, accountants: 4,
		rate: 16, warm: 6, probes: 200,
	},
	{
		name:  "login_churn",
		why:   "200k facts, login, select, 2 queries, logout at 25 lifecycles/s by warmed managers (Example 5.3 Foreach) and accountants: PRML, R-tree, view writes beside reads",
		facts: 200_000, stores: 2000, managers: 48, accountants: 16,
		rate: 25, warm: 16, churn: true,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// dataConfig is the workload's synthetic warehouse for a seed.
func (w *workloadSpec) dataConfig(seed int64) sdwp.DataConfig {
	cfg := sdwp.DefaultDataConfig()
	cfg.Seed = seed
	cfg.Sales = w.facts
	cfg.Stores = w.stores
	return cfg
}

// roles returns the workload's users: managers m00…, accountants a00…,
// and fresh probe managers p000….
func (w *workloadSpec) roles() map[string]string {
	r := map[string]string{}
	for _, u := range w.managerNames() {
		r[u] = "RegionalSalesManager"
	}
	for i := 0; i < w.accountants; i++ {
		r[fmt.Sprintf("a%02d", i)] = "Accountant"
	}
	for i := 0; i < w.probes; i++ {
		r[probeUser(i)] = "RegionalSalesManager"
	}
	return r
}

func (w *workloadSpec) managerNames() []string {
	out := make([]string, w.managers)
	for i := range out {
		out[i] = fmt.Sprintf("m%02d", i)
	}
	return out
}

// users lists the workload's traffic users (probe users excluded).
func (w *workloadSpec) users() []string {
	out := w.managerNames()
	for i := 0; i < w.accountants; i++ {
		out = append(out, fmt.Sprintf("a%02d", i))
	}
	return out
}

// probeSelects is the number of selections per probe session: the
// selections are cheap beside the login, so each probe gives several.
const probeSelects = 5

func probeUser(i int) string { return fmt.Sprintf("p%03d", i) }

func isManager(user string) bool { return user[0] == 'm' || user[0] == 'p' }

// inputs is everything a run sends, derived from the seed and the
// generated warehouse's city locations. Streams have their own generators
// so the i-th item of each is fixed by the seed, whatever other phases did.
type inputs struct {
	w       *workloadSpec
	users   []string
	cities  []sdwp.Point
	catalog []querySpec // dashboard shapes
	cycle   *cycler

	setup  []item // sequential set-up logins (and manager warming)
	warm   []item // closed-loop warm-up at the end of set-up
	open   []item // open-loop schedule, one item every 1/rate seconds
	probe  []item // login probes, spread over the measured rounds
	closed *stream
}

// cycler hands out churn users from a seeded permutation, so consecutive
// lifecycles of one user are len(users) items apart in every phase.
type cycler struct {
	mu    sync.Mutex
	perm  []int
	users []string
	n     int
}

func (c *cycler) next() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := c.users[c.perm[c.n%len(c.perm)]]
	c.n++
	return u
}

// stream yields a phase's items in seed order; safe for concurrent use.
type stream struct {
	mu   sync.Mutex
	in   *inputs
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newInputs(w *workloadSpec, seed int64, cities []sdwp.Point, openSeconds float64) *inputs {
	in := &inputs{w: w, users: w.users(), cities: cities}
	in.catalog = dashboardCatalog(rand.New(rand.NewSource(seed*7919 + 1)))
	in.cycle = &cycler{perm: rand.New(rand.NewSource(seed*7919 + 2)).Perm(len(in.users)), users: in.users}

	// Set-up: one login per traffic user, whose session stays open; or,
	// for churn, each manager warmed past the TrainAirportCity threshold
	// (three IntAirportCity selections) and logged out again.
	srng := rand.New(rand.NewSource(seed*7919 + 3))
	for _, u := range in.users {
		switch {
		case !w.churn:
			in.setup = append(in.setup, item{ops: []op{in.login(srng, u)}})
		case isManager(u):
			ops := []op{in.login(srng, u)}
			for k := 0; k < 3; k++ {
				ops = append(ops, op{kind: opSelect, user: u})
			}
			in.setup = append(in.setup, item{ops: append(ops, op{kind: opLogout, user: u})})
		}
	}
	os := in.newStream(seed*7919 + 4)
	for i, n := 0, int(math.Round(w.rate*openSeconds)); i < n; i++ {
		in.open = append(in.open, os.item())
	}
	ws := in.newStream(seed*7919 + 5)
	for i := 0; i < w.warm; i++ {
		in.warm = append(in.warm, ws.item())
	}
	prng := rand.New(rand.NewSource(seed*7919 + 6))
	for i := 0; i < w.probes; i++ {
		u := probeUser(i)
		ops := []op{in.login(prng, u)}
		for k := 0; k < probeSelects; k++ {
			ops = append(ops, op{kind: opSelect, user: u})
		}
		in.probe = append(in.probe, item{ops: append(ops, op{kind: opLogout, user: u})})
	}
	in.closed = in.newStream(seed*7919 + 7)
	return in
}

func (in *inputs) newStream(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	return &stream{in: in, rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, uint64(len(in.catalog)-1))}
}

// item draws the stream's next item.
func (s *stream) item() item {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.in
	switch {
	case in.w.churn:
		u := in.cycle.next()
		ops := []op{in.login(s.rng, u)}
		if isManager(u) {
			ops = append(ops, op{kind: opSelect, user: u})
		}
		for k := 0; k < 2; k++ {
			ops = append(ops, queryOp(u, s.dashboard()))
		}
		return item{ops: append(ops, op{kind: opLogout, user: u})}
	default:
		u := in.users[s.rng.Intn(len(in.users))]
		tiles := wideTiles(s.rng)
		spec, err := json.Marshal(tiles)
		if err != nil {
			panic(err) // plain structs always marshal
		}
		return item{ops: []op{{kind: opBatch, user: u, batch: tiles, spec: spec}}}
	}
}

// dashboard draws a dashboard query: a catalog shape by Zipf rank. Shapes
// of rank 1, 5, 9 and 13 are static (about 24% of the draws): they repeat
// and can hit the result cache while the session's view is unchanged.
// The others are parameterized: each request adds an age threshold and a
// brand drawn from 1020 combinations, so it practically never repeats.
func (s *stream) dashboard() querySpec {
	rank := s.zipf.Uint64()
	q := s.in.catalog[rank]
	if rank%4 != 1 {
		q.Filters = append(append([]attrFilter(nil), q.Filters...),
			ge("Customer", "Customer", "age", float64(18+s.rng.Intn(60))),
			eq("Product", "Product", "brand", fmt.Sprintf("Brand%02d", s.rng.Intn(17))))
	}
	return q
}

func queryOp(user string, q querySpec) op {
	spec, err := json.Marshal(q)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return op{kind: opQuery, user: user, query: &q, spec: spec}
}

// login draws a login at a city location jittered by at most 2 km, so the
// 5kmStores rule always finds the city's stores.
func (in *inputs) login(rng *rand.Rand, user string) op {
	c := in.cities[rng.Intn(len(in.cities))]
	r := 2 * math.Sqrt(rng.Float64()) // km, uniform over the disc
	th := rng.Float64() * 2 * math.Pi
	lat := c.Y + r*math.Cos(th)/111.32
	lon := c.X + r*math.Sin(th)/(111.32*math.Cos(c.Y*math.Pi/180))
	return op{kind: opLogin, user: user, wkt: fmt.Sprintf("POINT (%.6f %.6f)", lon, lat)}
}

var (
	families = []string{"Food", "Drink", "Household", "Electronics", "Clothing"}
	months   = []string{"2009-01", "2009-02", "2009-03"}
	segments = []string{"Retail", "Wholesale", "Online"}
	measures = []string{"UnitSales", "StoreCost", "StoreSales"}
)

// dashboardCatalog draws the 16 dashboard shapes of the churn workload's
// queries: 1–2 group-by levels on distinct dimensions, 1–2 aggregates,
// 0–2 filters with fixed values. The seed picks the levels, aggregates
// and filters; the size class of each rank is fixed (even ranks group by
// one fine level — product, day or store — odd ranks by coarse levels
// only, every third rank adds a coarse level), so answer sizes and scan
// costs do not swing from seed to seed.
func dashboardCatalog(rng *rand.Rand) []querySpec {
	fine := []levelRef{{"Product", "Product"}, {"Time", "Day"}, {"Store", "Store"}}
	coarse := []levelRef{
		{"Product", "Family"}, {"Time", "Month"}, {"Store", "City"}, {"Store", "State"}, {"Customer", "Segment"},
	}
	aggNames := []string{"SUM", "COUNT", "AVG", "MIN", "MAX"}
	filters := []func() attrFilter{
		func() attrFilter { return eq("Product", "Family", "name", families[rng.Intn(len(families))]) },
		func() attrFilter { return eq("Time", "Month", "name", months[rng.Intn(len(months))]) },
		func() attrFilter { return eq("Customer", "Segment", "name", segments[rng.Intn(len(segments))]) },
		func() attrFilter { return ge("Customer", "Customer", "age", float64(18+rng.Intn(60))) },
		func() attrFilter { return eq("Product", "Product", "brand", fmt.Sprintf("Brand%02d", rng.Intn(17))) },
	}
	out := make([]querySpec, 16)
	for i := range out {
		q := querySpec{Fact: "Sales"}
		if i%2 == 0 {
			q.GroupBy = append(q.GroupBy, fine[rng.Intn(len(fine))])
		} else {
			q.GroupBy = append(q.GroupBy, coarse[rng.Intn(len(coarse))])
		}
		if i%3 == 0 {
			for _, li := range rng.Perm(len(coarse)) {
				if coarse[li].Dimension != q.GroupBy[0].Dimension {
					q.GroupBy = append(q.GroupBy, coarse[li])
					break
				}
			}
		}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			a := aggNames[rng.Intn(len(aggNames))]
			m := ""
			if a != "COUNT" {
				m = measures[rng.Intn(len(measures))]
			}
			q.Aggregates = append(q.Aggregates, measureAgg{Measure: m, Agg: a})
		}
		for _, fi := range rng.Perm(len(filters))[:rng.Intn(3)] {
			q.Filters = append(q.Filters, filters[fi]())
		}
		out[i] = q
	}
	return out
}

// wideTiles draws one 8-tile dashboard refresh: four full-table
// (baseline) and four personalized tiles sharing this request's filter
// predicates and group-bys. Every tile filters on a city-population
// threshold drawn from two million values, so tiles practically never
// repeat and the result cache cannot answer them.
func wideTiles(rng *rand.Rand) []querySpec {
	fam := eq("Product", "Family", "name", families[rng.Intn(len(families))])
	month := eq("Time", "Month", "name", months[rng.Intn(len(months))])
	age := ge("Customer", "Customer", "age", float64(18+rng.Intn(60)))
	pop := ge("Store", "City", "population", float64(20000+rng.Intn(2_000_000)))
	byFamily := []levelRef{{"Product", "Family"}}
	byDay := []levelRef{{"Time", "Day"}}
	sum := func(m string) measureAgg { return measureAgg{Measure: m, Agg: "SUM"} }
	count := measureAgg{Agg: "COUNT"}
	tiles := []querySpec{
		{GroupBy: byFamily, Aggregates: []measureAgg{sum("UnitSales"), count}, Filters: []attrFilter{month, pop}},
		{GroupBy: byDay, Aggregates: []measureAgg{sum("StoreSales")}, Filters: []attrFilter{fam, pop}},
		{GroupBy: []levelRef{{"Store", "State"}, {"Customer", "Segment"}},
			Aggregates: []measureAgg{{Measure: "StoreCost", Agg: "AVG"}, {Measure: "StoreSales", Agg: "MAX"}},
			Filters:    []attrFilter{month, age, pop}},
		{GroupBy: []levelRef{{"Product", "Product"}}, Aggregates: []measureAgg{sum("UnitSales")}, Filters: []attrFilter{fam, age, pop}},
	}
	out := make([]querySpec, 0, 2*len(tiles))
	for _, t := range tiles {
		t.Fact = "Sales"
		base := t
		base.Baseline = true
		out = append(out, base, t)
	}
	return out
}

func eq(dim, level, attr string, v any) attrFilter {
	return attrFilter{Dimension: dim, Level: level, Attr: attr, Op: "=", Value: v}
}

func ge(dim, level, attr string, v any) attrFilter {
	return attrFilter{Dimension: dim, Level: level, Attr: attr, Op: ">=", Value: v}
}
