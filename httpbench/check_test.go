package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"sdwp"
	"sdwp/internal/cube"
)

// smallRun drives a small SUT through its set-up, a few open-loop items
// and the login probes (login → selects → logout), returning the runner
// that logged them. With churn the items are session lifecycles with
// single queries, otherwise 8-tile batches on open sessions.
func smallRun(t *testing.T, churn bool) (*workloadSpec, int64, *runner) {
	t.Helper()
	w := &workloadSpec{name: "small", facts: 5000, stores: 300, managers: 2, accountants: 2, rate: 100, probes: 3, churn: churn}
	const seed = 3
	e, ds, err := newEngine(w, seed, engineOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	s, err := startSUT(e)
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	in := newInputs(w, seed, ds.CityLocs, 0.1) // 10 open-loop items
	r := newRunner(s, w, false)
	t.Cleanup(r.close)
	r.sequential(in.setup, phSetup)
	r.sequential(in.open, phOpen)
	r.sequential(in.probe, phProbe)
	return w, seed, r
}

func replay(t *testing.T, w *workloadSpec, seed int64, r *runner) *verdict {
	t.Helper()
	ref, err := newReference(w, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.engine.Close()
	return ref.replay(r.byUser)
}

// find returns the first logged request of the kind whose answer passes
// keep.
func find(t *testing.T, r *runner, kind opKind, keep func(body []byte) bool) *record {
	t.Helper()
	for _, rec := range r.all {
		if rec.op.kind == kind && rec.ok() && keep(rec.body) {
			return rec
		}
	}
	t.Fatalf("no %s request to corrupt", kind)
	return nil
}

func TestReplayPassesCorrectAnswers(t *testing.T) {
	for _, churn := range []bool{false, true} {
		w, seed, r := smallRun(t, churn)
		v := replay(t, w, seed, r)
		if len(v.failed) != 0 || v.wrong != 0 {
			for rec, why := range v.failed {
				t.Errorf("%s: %s", rec, why)
			}
			t.Fatalf("churn=%v: replay failed %d requests (%d wrong), want 0", churn, len(v.failed), v.wrong)
		}
		if len(v.logins) == 0 || len(v.selects) == 0 {
			t.Fatalf("churn=%v: replayed %d logins and %d selects, want some of each", churn, len(v.logins), len(v.selects))
		}
	}
}

// corruptFirstValue adds 1 to the first aggregate value of an answer.
func corruptFirstValue(res *sdwp.Result) bool {
	if len(res.Rows) == 0 || len(res.Rows[0].Values) == 0 {
		return false
	}
	res.Rows[0].Values[0]++
	return true
}

func TestReplayCatchesCorruptedQueryAnswer(t *testing.T) {
	w, seed, r := smallRun(t, true)
	rec := find(t, r, opQuery, func(body []byte) bool {
		var res sdwp.Result
		return json.Unmarshal(body, &res) == nil && corruptFirstValue(&res)
	})
	var res sdwp.Result
	if err := json.Unmarshal(rec.body, &res); err != nil {
		t.Fatal(err)
	}
	corruptFirstValue(&res)
	body, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	rec.body = body

	v := replay(t, w, seed, r)
	if v.wrong != 1 || len(v.failed) != 1 {
		t.Fatalf("replay found %d wrong of %d failed, want the one corrupted answer", v.wrong, len(v.failed))
	}
	why, ok := v.failed[rec]
	if !ok || !strings.Contains(why, "answer differs") {
		t.Fatalf("corrupted request not named: %v", v.failed)
	}
	if !strings.Contains(rec.String(), rec.reqID) {
		t.Fatalf("failure report %q does not name the request ID %s", rec.String(), rec.reqID)
	}
}

func TestReplayCatchesCorruptedBatchTile(t *testing.T) {
	w, seed, r := smallRun(t, false)
	var tiles struct{ Results []*sdwp.Result }
	rec := find(t, r, opBatch, func(body []byte) bool {
		return json.Unmarshal(body, &tiles) == nil && corruptFirstValue(tiles.Results[len(tiles.Results)-1])
	})
	body, err := json.Marshal(&tiles)
	if err != nil {
		t.Fatal(err)
	}
	rec.body = body
	v := replay(t, w, seed, r)
	if v.wrong != 1 || !strings.Contains(v.failed[rec], "tile 7") {
		t.Fatalf("corrupted batch tile not caught: wrong=%d failed=%v", v.wrong, v.failed)
	}
}

func TestReplayCatchesCorruptedSelection(t *testing.T) {
	w, seed, r := smallRun(t, false)
	rec := find(t, r, opSelect, func(body []byte) bool { return strings.Contains(string(body), `"City`) })
	rec.body = []byte(strings.Replace(string(rec.body), `"City`, `"Town`, 1))
	v := replay(t, w, seed, r)
	if v.wrong != 1 || !strings.Contains(v.failed[rec], "selected") {
		t.Fatalf("corrupted selection not caught: wrong=%d failed=%v", v.wrong, v.failed)
	}
}

func TestReplayCatchesCorruptedSchemaDiff(t *testing.T) {
	w, seed, r := smallRun(t, true)
	rec := find(t, r, opLogin, func(body []byte) bool { return strings.Contains(string(body), "+Layer Airport") })
	rec.body = []byte(strings.Replace(string(rec.body), "+Layer Airport", "+Layer Harbour", 1))
	v := replay(t, w, seed, r)
	if v.wrong != 1 || !strings.Contains(v.failed[rec], "schemaDiff") {
		t.Fatalf("corrupted schema diff not caught: wrong=%d failed=%v", v.wrong, v.failed)
	}
}

// An accountant's selection is rejected by the SUT (400) and by the
// reference engine alike; the replay still fails it, since no workload
// sends a request that should fail.
func TestReplayFailsRequestsBothEnginesReject(t *testing.T) {
	w, seed, r := smallRun(t, false)
	wkt := find(t, r, opLogin, func([]byte) bool { return true }).op.wkt
	const accountant = "a00"
	r.sequential([]item{{ops: []op{{kind: opLogin, user: accountant, wkt: wkt}, {kind: opSelect, user: accountant}, {kind: opLogout, user: accountant}}}}, phOpen)
	rec := r.all[len(r.all)-2]
	if rec.op.kind != opSelect || rec.status != http.StatusBadRequest {
		t.Fatalf("accountant selection: %s answered %d, want a 400", rec, rec.status)
	}
	v := replay(t, w, seed, r)
	if len(v.failed) != 1 || v.wrong != 0 || !strings.Contains(v.failed[rec], "reference engine rejects it") {
		t.Fatalf("rejected selection not failed: wrong=%d failed=%v", v.wrong, v.failed)
	}
}

func TestAnswerDiffIgnoresCostOnly(t *testing.T) {
	want := &sdwp.Result{GroupCols: []string{"Family"}, AggCols: []string{"SUM(UnitSales)"},
		Rows: []cube.Row{{Groups: []string{"Food"}, Values: []float64{42.5}}}, ScannedFacts: 10, MatchedFacts: 4}
	got := *want
	got.Cost.FactsScanned, got.Cost.CellsTouched = 10, 1
	body, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if d := answerDiff(body, want); d != "" {
		t.Fatalf("answers differing only in cost reported as %q", d)
	}
	got.MatchedFacts = 5
	if body, err = json.Marshal(&got); err != nil {
		t.Fatal(err)
	}
	if d := answerDiff(body, want); !strings.Contains(d, "differs") {
		t.Fatalf("changed matchedFacts reported as %q", d)
	}
	if d := batchDiff([]byte(`{"results":[null]}`), []*sdwp.Result{want}); d == "" {
		t.Fatal("null batch tile passed")
	}
}
