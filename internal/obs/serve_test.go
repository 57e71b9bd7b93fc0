package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func telemetryGet(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestHandlerMetricsExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("events.slot_executed").Add(9)
	reg.Gauge("mcs.slot.current").Set(8)
	reg.Histogram("span.solve.seconds").Observe(0.5)

	h := Handler(ServeOptions{Registry: reg})
	res, body := telemetryGet(t, h, "/metrics")
	if res.StatusCode != 200 {
		t.Fatalf("/metrics status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != ExpositionContentType {
		t.Errorf("content type %q", ct)
	}
	samples := validateExposition(t, body)
	if samples["events_slot_executed"] != "9" || samples["mcs_slot_current"] != "8" {
		t.Errorf("exposition missing live metrics:\n%s", body)
	}
	if samples["span_solve_seconds_count"] != "1" {
		t.Errorf("span histogram not exposed:\n%s", body)
	}
}

func TestHandlerMetricsNoRegistry(t *testing.T) {
	res, body := telemetryGet(t, Handler(ServeOptions{}), "/metrics")
	if res.StatusCode != 200 || body != "" {
		t.Errorf("registry-less /metrics: status %d body %q", res.StatusCode, body)
	}
}

func TestHandlerRunsProgress(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("mcs.slot.current").Set(12)
	reg.Gauge("mcs.tags.read").Set(345)
	reg.Gauge("checkpoint.last_slot").Set(11)
	reg.Gauge("supervise.attempt").Set(1)
	reg.Counter("mcs.slots.truncated").Add(3)
	reg.Counter("checkpoint.records").Add(13)
	reg.Counter("events.run_completed").Add(0)

	res, body := telemetryGet(t, Handler(ServeOptions{Registry: reg}), "/runs")
	if res.StatusCode != 200 {
		t.Fatalf("/runs status %d", res.StatusCode)
	}
	var st RunStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/runs is not JSON: %v\n%s", err, body)
	}
	want := RunStatus{
		Slot: 12, TagsRead: 345, AnytimeSlots: 3,
		CheckpointLastSlot: 11, CheckpointLag: 1, CheckpointsWritten: 13,
		SuperviseAttempt: 1,
	}
	if st != want {
		t.Errorf("run status %+v, want %+v", st, want)
	}
}

func TestRunStatusUnsetGaugesAreMinusOne(t *testing.T) {
	st := RunStatusFrom(NewRegistry().Snapshot())
	if st.Slot != -1 || st.TagsRead != -1 || st.CheckpointLastSlot != -1 ||
		st.CheckpointLag != -1 || st.SuperviseAttempt != -1 {
		t.Errorf("empty registry status %+v, want -1 sentinels", st)
	}
	if st.AnytimeSlots != 0 || st.CheckpointsWritten != 0 {
		t.Errorf("absent counters should read 0: %+v", st)
	}
}

func TestHandlerHealthAndReadiness(t *testing.T) {
	ready := false
	h := Handler(ServeOptions{Ready: func() bool { return ready }})

	if res, _ := telemetryGet(t, h, "/healthz"); res.StatusCode != 200 {
		t.Errorf("/healthz status %d", res.StatusCode)
	}
	if res, _ := telemetryGet(t, h, "/readyz"); res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("not-ready /readyz status %d, want 503", res.StatusCode)
	}
	ready = true
	if res, _ := telemetryGet(t, h, "/readyz"); res.StatusCode != 200 {
		t.Errorf("ready /readyz status %d", res.StatusCode)
	}
	// No hook: always ready.
	if res, _ := telemetryGet(t, Handler(ServeOptions{}), "/readyz"); res.StatusCode != 200 {
		t.Errorf("hookless /readyz status %d", res.StatusCode)
	}
}

func TestHandlerFlightDump(t *testing.T) {
	rec := NewFlightRecorder(8)
	rec.Emit(EvSlotExecuted(0, []int{1, 2}, 5))
	rec.Emit(EvRunCompleted(1, 5, "alg2", "ok"))
	h := Handler(ServeOptions{Flight: rec})

	res, body := telemetryGet(t, h, "/debug/flight")
	if res.StatusCode != 200 {
		t.Fatalf("/debug/flight status %d", res.StatusCode)
	}
	sum, err := ReadSummary(strings.NewReader(body))
	if err != nil {
		t.Fatalf("flight dump is not a readable trace: %v", err)
	}
	if sum.Lines() != 2 {
		t.Errorf("dump has %d lines, want 2", sum.Lines())
	}
}

func TestHandlerFlightAbsent(t *testing.T) {
	if res, _ := telemetryGet(t, Handler(ServeOptions{}), "/debug/flight"); res.StatusCode != 404 {
		t.Errorf("recorder-less /debug/flight status %d, want 404", res.StatusCode)
	}
}

func TestHandlerPprofIndex(t *testing.T) {
	res, body := telemetryGet(t, Handler(ServeOptions{}), "/debug/pprof/")
	if res.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ status %d", res.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index looks wrong:\n%.200s", body)
	}
}

// TestServeBindsAndServes exercises the real listener path: bind :0, hit the
// endpoints over TCP, close, and confirm the port is released.
func TestServeBindsAndServes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("events.slot_executed").Inc()
	srv, err := Serve("127.0.0.1:0", ServeOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || !strings.Contains(string(body), "events_slot_executed 1") {
		t.Errorf("live /metrics: status %d body:\n%s", res.StatusCode, body)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr + "/healthz"); err == nil {
		t.Error("server still reachable after Close")
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:99999", ServeOptions{}); err == nil {
		t.Error("no error for an unbindable address")
	}
}

// TestServeDropsSlowlorisClient trickles header lines to a live server one
// every 250 ms and never finishes them: the server must hang up once
// readHeaderTimeout has passed, while a normal request on another connection
// is still served.
func TestServeDropsSlowlorisClient(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	closed := make(chan time.Duration, 1)
	go func() {
		// The server never answers a request it has not finished reading,
		// so the first read returns only when it closes the connection.
		io.Copy(io.Discard, conn)
		closed <- time.Since(start)
	}()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	limit := time.After(readHeaderTimeout + 5*time.Second)
	for i := 0; ; i++ {
		select {
		case d := <-closed:
			if d < readHeaderTimeout-time.Second {
				t.Errorf("connection closed after %v, before the %v header timeout", d, readHeaderTimeout)
			}
			if res, err := http.Get("http://" + srv.Addr + "/healthz"); err != nil || res.StatusCode != 200 {
				t.Errorf("well-behaved client refused after the slowloris cut: %v", err)
			} else {
				res.Body.Close()
			}
			return
		case <-tick.C:
			// Write errors are expected once the server has hung up.
			fmt.Fprintf(conn, "X-Trickle-%d: 1\r\n", i)
		case <-limit:
			t.Fatalf("slowloris client still connected after %v", time.Since(start))
		}
	}
}
