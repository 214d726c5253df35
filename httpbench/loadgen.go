package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sdwp"
)

// engineOptions are cmd/solapd's defaults: 500 µs coalesce window, 32 MiB
// result cache, serial scans, no fact shards, no artifact cache. Tracing
// is on only in the traced run.
func engineOptions(traced bool) sdwp.EngineOptions {
	o := sdwp.EngineOptions{
		CoalesceWindow:   500 * time.Microsecond,
		ResultCacheBytes: 32 << 20,
	}
	if traced {
		o.TraceSampleRate = 1
	}
	return o
}

// threshold is the TrainAirportCity designer parameter (solapd's default).
const threshold = 2

// newEngine builds an engine over a fresh warehouse for the seed with the
// paper's rules registered.
func newEngine(w *workloadSpec, seed int64, opts sdwp.EngineOptions) (*sdwp.Engine, *sdwp.Dataset, error) {
	ds, err := sdwp.GenerateData(w.dataConfig(seed))
	if err != nil {
		return nil, nil, fmt.Errorf("generate data: %w", err)
	}
	users, err := sdwp.NewSalesUserStore(w.roles())
	if err != nil {
		return nil, nil, fmt.Errorf("user store: %w", err)
	}
	e := sdwp.NewEngine(ds.Cube, users, opts)
	e.SetParam("threshold", sdwp.Number(threshold))
	if _, err := e.AddRules(sdwp.PaperRules); err != nil {
		e.Close()
		return nil, nil, fmt.Errorf("rules: %w", err)
	}
	return e, ds, nil
}

// sut is the system under test: an engine behind sdwp.NewHTTPServer on a
// loopback listener.
type sut struct {
	engine *sdwp.Engine
	srv    *http.Server
	served chan struct{}
	base   string
}

func startSUT(e *sdwp.Engine) (*sut, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &sut{
		engine: e,
		srv:    &http.Server{Handler: sdwp.NewHTTPServer(e)},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the listener, waits for in-flight requests and the serve
// loop, then stops the engine's scheduler.
func (s *sut) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // on timeout the serve loop still exits below
	<-s.served
	s.engine.Close()
}

// client is one keep-alive HTTP connection of the load generator.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) do(method, path string, body []byte, reqID string) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) getJSON(path string, v any) error {
	status, body, err := c.do(http.MethodGet, path, nil, "")
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

// phase is the part of a run a request belongs to.
type phase int

const (
	phSetup  phase = iota // set-up logins and manager warming
	phWarm                // closed-loop warm-up, still part of set-up
	phOpen                // timed open loop
	phClosed              // timed closed loop (capacity)
	phProbe               // post-window login probes
)

var phaseTags = [...]string{"s", "w", "o", "c", "p"}

// record is one request as the load generator saw it.
type record struct {
	op     *op
	phase  phase
	round  int
	item   int
	reqID  string
	due    time.Time // open loop: when the item was due; otherwise = start
	start  time.Time
	end    time.Time
	status int
	body   []byte
	err    error
	trace  *traceSnapshot // traced run, query requests only
}

// latency is the request's latency counted from its due time.
func (r *record) latency() time.Duration { return r.end.Sub(r.due) }

func (r *record) ok() bool { return r.err == nil && r.status/100 == 2 }

func (r *record) String() string {
	return fmt.Sprintf("%s request %s round %d (user %s, item %d, X-Request-Id %s)",
		r.op.kind, phaseNames[r.phase], r.round, r.op.user, r.item, r.reqID)
}

var phaseNames = [...]string{"setup", "warm-up", "open-loop", "closed-loop", "probe"}

// runner drives one SUT with two connections and logs every request.
type runner struct {
	clients [2]*client
	traced  bool
	userMu  map[string]*sync.Mutex
	// round numbers the measurement rounds; set between phases only.
	round int
	// openDone counts the open-loop items sent so far (their indexes).
	openDone int

	mu     sync.Mutex
	tokens map[string]string    // user → live session token
	byUser map[string][]*record // per user, in completion order
	all    []*record
}

func newRunner(s *sut, w *workloadSpec, traced bool) *runner {
	r := &runner{
		traced: traced,
		userMu: map[string]*sync.Mutex{},
		tokens: map[string]string{},
		byUser: map[string][]*record{},
	}
	for i := range r.clients {
		r.clients[i] = newClient(s.base)
	}
	for u := range w.roles() {
		r.userMu[u] = &sync.Mutex{}
	}
	return r
}

func (r *runner) close() {
	for _, c := range r.clients {
		c.tr.CloseIdleConnections()
	}
}

func (r *runner) token(user string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tokens[user]
}

// request builds the path and body of an operation for the user's live
// session.
func (r *runner) request(o *op) (string, []byte) {
	tok := strconv.Quote(r.token(o.user))
	switch o.kind {
	case opLogin:
		b, _ := json.Marshal(struct {
			User        string `json:"user"`
			LocationWKT string `json:"locationWKT"`
		}{o.user, o.wkt})
		return "/api/login", b
	case opSelect:
		b, _ := json.Marshal(struct {
			Session   string `json:"session"`
			Target    string `json:"target"`
			Predicate string `json:"predicate"`
		}{r.token(o.user), selectTarget, selectPredicate})
		return "/api/select", b
	case opQuery:
		return "/api/query", append([]byte(`{"session":`+tok+`,`), o.spec[1:]...)
	case opBatch:
		b := append([]byte(`{"session":`+tok+`,"queries":`), o.spec...)
		return "/api/query/batch", append(b, '}')
	default:
		return "/api/logout", []byte(`{"session":` + tok + `}`)
	}
}

// exec runs one item's operations back to back on the connection. The
// first request's latency counts from due (zero: from its send).
func (r *runner) exec(c *client, it item, ph phase, idx int, due time.Time) {
	if it.stateful() {
		m := r.userMu[it.ops[0].user]
		m.Lock()
		defer m.Unlock()
	}
	for j := range it.ops {
		o := &it.ops[j]
		rec := &record{op: o, phase: ph, round: r.round, item: idx,
			reqID: fmt.Sprintf("%s%d.%d-%d", phaseTags[ph], r.round, idx, j)}
		path, body := r.request(o)
		rec.start = time.Now()
		rec.due = rec.start
		if j == 0 && !due.IsZero() {
			rec.due = due
		}
		rec.status, rec.body, rec.err = c.do(http.MethodPost, path, body, rec.reqID)
		rec.end = time.Now()
		if r.traced && (o.kind == opQuery || o.kind == opBatch) && rec.ok() {
			var ts traceSnapshot
			if err := c.getJSON("/api/trace/"+rec.reqID, &ts); err != nil {
				rec.err = fmt.Errorf("trace: %w", err)
			} else {
				rec.trace = &ts
			}
		}
		r.log(rec)
	}
}

// log files a finished request and tracks session tokens.
func (r *runner) log(rec *record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u := rec.op.user
	switch rec.op.kind {
	case opLogin:
		var resp struct{ Session string }
		if rec.ok() && json.Unmarshal(rec.body, &resp) == nil {
			r.tokens[u] = resp.Session
		}
	case opLogout:
		delete(r.tokens, u)
	}
	r.byUser[u] = append(r.byUser[u], rec)
	r.all = append(r.all, rec)
}

// sequential runs items one after another on the first connection.
func (r *runner) sequential(items []item, ph phase) {
	for i, it := range items {
		r.exec(r.clients[0], it, ph, i, time.Time{})
	}
}

// closedLoop runs items on both connections, each sending its next item
// as soon as the previous one completed, until next reports no more. It
// returns the successful requests and the time they took.
func (r *runner) closedLoop(ph phase, next func(i int) (item, bool)) (int, time.Duration) {
	var (
		n  atomic.Int64
		wg sync.WaitGroup
	)
	start := time.Now()
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(n.Add(1) - 1)
				it, more := next(i)
				if !more {
					return
				}
				r.exec(c, it, ph, i, time.Time{})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	okReq := 0
	for _, rec := range r.all {
		if rec.phase == ph && rec.round == r.round && rec.ok() {
			okReq++
		}
	}
	return okReq, elapsed
}

// openLoop sends item i at start + i/rate whether or not earlier items
// have completed, on whichever of the two connections is free first;
// each request is timed from its due time. Each connection paces itself:
// it takes the next item, sleeps until it is due and sends it. The
// returned lateness is the generator's own: how long after the due time
// a connection that was idle before it woke to send (an item a busy
// connection takes up late is late because of the system, not the
// generator).
func (r *runner) openLoop(items []item, rate float64) []time.Duration {
	base := r.openDone
	r.openDone += len(items)
	late := make([]time.Duration, len(items))
	start := time.Now().Add(10 * time.Millisecond)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if sleepUntil(due) {
					late[i] = time.Since(due)
				}
				r.exec(c, items[i], phOpen, base+i, due)
			}
		}(c)
	}
	wg.Wait()
	return late
}

// sleepUntil blocks until t and reports whether it had to wait. The Go
// timer wakes sub-millisecond sleeps up to a millisecond late, so it
// sleeps in the kernel (nanosleep has microsecond resolution) until
// shortly before t and spins the rest.
func sleepUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return false
	}
	if d > spinWindow {
		ts := syscall.NsecToTimespec(int64(d - spinWindow))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the spin covers it
	}
	for time.Now().Before(t) {
	}
	return true
}

// spinWindow is the part of each wait spent spinning: about the kernel's
// timer slack plus wake-up latency on an idle CPU.
const spinWindow = 60 * time.Microsecond
