package serve

// The serving concurrency contracts, written to run under -race:
//
//   - singleflight: a burst of identical requests runs ONE underlying
//     analysis; every other caller joins it and is marked shared
//   - admission: flight followers never consume pool slots, so verdicts
//     are invariant across admission-pool widths, and a saturated pool
//     sheds NEW work with 429 instead of queuing
//   - cancellation: when every client of a flight disconnects, the
//     underlying analysis stops promptly
//   - containment: a panicking analysis fails its own flight with a 500
//     and the daemon keeps serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"airct/internal/logic"
	"airct/internal/panics"
	"airct/internal/workload"
)

// slowExistsBody builds an exists request over StageGrid(n) — a 3^n-state
// sweep (~250ms at n=10 sequentially, seconds at n=12) whose search checks
// its context every expansion, so flights overlap reliably and cancel
// promptly.
func slowExistsBody(n int) []byte {
	src := programText(workload.StageGrid(n))
	raw, err := json.Marshal(ExistsRequest{Program: src, MaxStates: 1_000_000, MaxAtoms: 100})
	if err != nil {
		panic(err)
	}
	return raw
}

// TestSingleflightBurst is the issue's dedup proof: N identical concurrent
// exists requests cost exactly one underlying search — flights.started is
// 1, the other N−1 are deduped and marked shared — and all N carry the
// same verdict.
func TestSingleflightBurst(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := slowExistsBody(10)
	const n = 8

	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		mu    sync.Mutex
		resps []ExistsResponse
	)
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			resp, err := http.Post(ts.url("/v1/exists"), "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			var ex ExistsResponse
			if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("status %d decode %v", resp.StatusCode, err)
				return
			}
			mu.Lock()
			resps = append(resps, ex)
			mu.Unlock()
		}()
	}
	start.Done()
	done.Wait()

	fl := ts.srv.Stats().Flights
	if fl.Started != 1 {
		t.Errorf("flights started = %d, want 1 (the whole burst shares one search)", fl.Started)
	}
	if fl.Deduped != n-1 {
		t.Errorf("flights deduped = %d, want %d", fl.Deduped, n-1)
	}
	shared := 0
	for _, ex := range resps {
		if ex.Shared {
			shared++
		}
	}
	if len(resps) != n || shared != n-1 {
		t.Errorf("responses = %d with %d shared, want %d with %d", len(resps), shared, n, n-1)
	}
	for _, ex := range resps {
		if ex.Verdict != resps[0].Verdict || ex.States != resps[0].States {
			t.Errorf("burst verdicts drifted: %+v vs %+v", ex, resps[0])
		}
	}
}

// TestPoolWidthInvariance pins that followers never consume admission
// slots: the same identical burst succeeds completely at MaxInflight 1 and
// 8 with identical verdicts and exactly one underlying flight each — the
// pool width changes scheduling, never answers.
func TestPoolWidthInvariance(t *testing.T) {
	verdicts := make(map[int]string)
	for _, width := range []int{1, 8} {
		ts := newTestServer(t, Config{MaxInflight: width})
		body := slowExistsBody(9)
		const n = 6
		var start, done sync.WaitGroup
		errs := make(chan string, n)
		start.Add(1)
		for i := 0; i < n; i++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				resp, err := http.Post(ts.url("/v1/exists"), "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				defer resp.Body.Close()
				var ex ExistsResponse
				if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d err %v", resp.StatusCode, err)
					return
				}
				errs <- "verdict:" + ex.Verdict
			}()
		}
		start.Done()
		done.Wait()
		close(errs)
		for msg := range errs {
			if len(msg) < 8 || msg[:8] != "verdict:" {
				t.Fatalf("width=%d: request failed: %s", width, msg)
			}
			if v, ok := verdicts[width]; ok && v != msg {
				t.Errorf("width=%d: verdicts drifted within burst: %s vs %s", width, msg, v)
			}
			verdicts[width] = msg
		}
		if fl := ts.srv.Stats().Flights; fl.Started != 1 || fl.Shed != 0 {
			t.Errorf("width=%d: flights = %+v, want one started and none shed", width, fl)
		}
	}
	if verdicts[1] != verdicts[8] {
		t.Errorf("verdict varies with pool width: %q vs %q", verdicts[1], verdicts[8])
	}
}

// TestAdmissionShed pins the load-shedding contract: with one admission
// slot held by a slow flight, a DIFFERENT request is shed immediately with
// 429 — never queued behind the slow one.
func TestAdmissionShed(t *testing.T) {
	ts := newTestServer(t, Config{MaxInflight: 1})

	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		resp, err := http.Post(ts.url("/v1/exists"), "application/json", bytes.NewReader(slowExistsBody(11)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Wait until the slow flight holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for ts.srv.Stats().Flights.Started == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow flight never started")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	status, body := rawPost(t, ts.url("/v1/decide"), `{"program":"r: P(X) -> Q(X)."}`)
	elapsed := time.Since(start)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", status, body)
	}
	// Shedding must be immediate — well under the slow flight's runtime.
	if elapsed > 2*time.Second {
		t.Errorf("shed took %v; must not queue behind the in-flight analysis", elapsed)
	}
	var e errorResponse
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
		t.Errorf("shed body not JSON {error}: %s", body)
	}
	if got := ts.srv.Stats().Flights.Shed; got != 1 {
		t.Errorf("flights shed = %d, want 1", got)
	}
	<-slowDone
}

// TestClientDisconnectCancelsFlight pins prompt cancellation: a flight
// whose only client disconnects is stopped well before it would finish on
// its own (StageGrid(12) runs for seconds; the cancel lands at ~100ms).
func TestClientDisconnectCancelsFlight(t *testing.T) {
	ts := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.url("/v1/exists"), bytes.NewReader(slowExistsBody(12)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	deadline := time.Now().Add(5 * time.Second)
	for ts.srv.Stats().Flights.Started == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight never started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("request completed despite cancellation")
	}

	// The flight must notice within 2s — far sooner than the search's
	// natural multi-second runtime.
	deadline = time.Now().Add(2 * time.Second)
	for ts.srv.Stats().Flights.Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("flight not cancelled within 2s of the last client leaving: %+v", ts.srv.Stats().Flights)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerCloseCancelsFlights pins shutdown: Close cancels detached
// in-flight work even while a client is still waiting on it.
func TestServerCloseCancelsFlights(t *testing.T) {
	ts := newTestServer(t, Config{})
	errc := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.url("/v1/exists"), "application/json", bytes.NewReader(slowExistsBody(12)))
		if err != nil {
			errc <- -1
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		errc <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ts.srv.Stats().Flights.Started == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight never started")
		}
		time.Sleep(time.Millisecond)
	}
	ts.srv.Close()
	select {
	case status := <-errc:
		// The search absorbs cancellation as data: the waiting client gets a
		// 200 with verdict "cancelled" (no semantic claim) rather than an
		// abrupt close.
		if status != http.StatusOK {
			t.Errorf("status after shutdown = %d, want 200 with a cancelled verdict", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client still waiting 5s after Close; shutdown did not cancel the flight")
	}
}

// TestFlightPanicIsContained injects a panicking flight function: the
// leader recovers it into a 500, counts it in /v1/stats, logs both key
// fingerprints, and releases its admission slot — with a one-slot pool,
// the next request would be shed with 429 if the slot leaked.
func TestFlightPanicIsContained(t *testing.T) {
	var (
		mu     sync.Mutex
		logged []string
	)
	ts := newTestServer(t, Config{MaxInflight: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	key := flightKey{set: logic.FingerprintString("panicking set"), inst: logic.FingerprintString("panicking instance"), salt: 1}
	val, _, err := ts.srv.doFlight(context.Background(), key, 0, func(context.Context) (any, error) {
		panic("injected analysis fault")
	})
	if val != nil || !errors.Is(err, errPanicked) {
		t.Fatalf("panicking flight = (%v, %v), want errPanicked", val, err)
	}
	rec := httptest.NewRecorder()
	if _, ok := ts.srv.finish(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", nil), val, err); ok || rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking flight answered %d (ok=%v), want 500", rec.Code, ok)
	}

	var dec DecideResponse
	postJSON(t, ts.url("/v1/decide"), DecideRequest{Program: "r: P(X) -> Q(X)."}, http.StatusOK, &dec)
	if dec.Verdict != "terminates" {
		t.Errorf("verdict after a contained panic = %q", dec.Verdict)
	}
	var st StatsResponse
	getJSON(t, ts.url("/v1/stats"), http.StatusOK, &st)
	if st.Flights.Panics != 1 || st.Flights.Started != 2 {
		t.Errorf("flights = %+v, want panics=1 started=2", st.Flights)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], key.set.String()) || !strings.Contains(logged[0], key.inst.String()) {
		t.Errorf("panic log = %q, want one line naming both fingerprints", logged)
	}
}

// TestWorkerPanicIsContained: an analysis whose own worker goroutine
// panicked returns the recovered *panics.Error (as portfolio.Analyze does
// for a Tier 2 racer and guarded.Decide for a seed worker). The leader
// answers it like a panic on its own stack — a 500, counted in /v1/stats
// flights.panics, logged once — and the daemon keeps serving.
func TestWorkerPanicIsContained(t *testing.T) {
	var logged atomic.Int64
	ts := newTestServer(t, Config{MaxInflight: 1, Logf: func(string, ...any) { logged.Add(1) }})
	key := flightKey{set: logic.FingerprintString("worker-panic set"), salt: 2}
	val, _, err := ts.srv.doFlight(context.Background(), key, 0, func(context.Context) (any, error) {
		errc := make(chan error)
		go func() {
			var err error
			defer func() { errc <- err }()
			defer panics.Recover(&err, "portfolio stage %s", "faulty")
			panic("injected racer fault")
		}()
		return nil, <-errc
	})
	if val != nil || !errors.Is(err, errPanicked) || !strings.Contains(err.Error(), "portfolio stage faulty") {
		t.Fatalf("worker-panicked flight = (%v, %v), want errPanicked naming the stage", val, err)
	}
	rec := httptest.NewRecorder()
	if _, ok := ts.srv.finish(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", nil), val, err); ok || rec.Code != http.StatusInternalServerError {
		t.Errorf("worker-panicked flight answered %d (ok=%v), want 500", rec.Code, ok)
	}
	var dec DecideResponse
	postJSON(t, ts.url("/v1/decide"), DecideRequest{Program: "r: P(X) -> Q(X).", Portfolio: true}, http.StatusOK, &dec)
	if dec.Verdict != "terminates" {
		t.Errorf("verdict after a contained worker panic = %q", dec.Verdict)
	}
	var st StatsResponse
	getJSON(t, ts.url("/v1/stats"), http.StatusOK, &st)
	if st.Flights.Panics != 1 || logged.Load() != 1 {
		t.Errorf("flights = %+v, %d log lines; want panics=1 and one log line", st.Flights, logged.Load())
	}
}
