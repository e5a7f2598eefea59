package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/telemetry"
)

func TestQueryServedAndShed(t *testing.T) {
	plant := &fakePlant{mode: core.ModeNormal, soc: 0.8, recoverAt: time.Hour}
	cfg := DefaultConfig()
	cfg.BaseQPS = 5
	gw := New(cfg, plant)
	gw.Advance(0)
	srv := httptest.NewServer((&Server{GW: gw, Now: gw.Now}).Mux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/query?class=standard")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Decision string  `json:"decision"`
		Mode     string  `json:"mode"`
		Reason   string  `json:"reason"`
		Retry    float64 `json:"retry_after_s"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Decision != "served" || rep.Mode != "normal" {
		t.Fatalf("served query: code %d rep %+v", resp.StatusCode, rep)
	}

	// Blackout: 503 with a Retry-After header derived from the forecast.
	plant.set(core.ModeBlackout, 0.1)
	gw.Advance(0) // admission sees the plant as of the last Advance
	resp, err = http.Get(srv.URL + "/query?class=critical")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rep.Decision != "shed" || rep.Reason != "mode" {
		t.Fatalf("blackout query: code %d rep %+v", resp.StatusCode, rep)
	}
	if resp.Header.Get("Retry-After") == "" || rep.Retry <= 0 {
		t.Fatalf("shed response missing retry-after: header %q body %.0f",
			resp.Header.Get("Retry-After"), rep.Retry)
	}

	resp, err = http.Get(srv.URL + "/query?class=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus class: code %d, want 400", resp.StatusCode)
	}
}

func TestQueryBlocksUntilDispatch(t *testing.T) {
	plant := &fakePlant{mode: core.ModeNormal, soc: 0.8}
	gw := New(testConfig(), plant) // 1 QPS, burst 1
	gw.Advance(0)
	gw.Offer(0, Standard) // consume the token
	srv := httptest.NewServer((&Server{GW: gw, Now: gw.Now}).Mux())
	defer srv.Close()

	got := make(chan struct {
		code     int
		decision string
		waitMs   float64
	}, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/query?class=standard")
		if err != nil {
			t.Error(err)
			close(got)
			return
		}
		defer resp.Body.Close()
		var rep struct {
			Decision string  `json:"decision"`
			WaitMs   float64 `json:"wait_ms"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Error(err)
			close(got)
			return
		}
		got <- struct {
			code     int
			decision string
			waitMs   float64
		}{resp.StatusCode, rep.Decision, rep.WaitMs}
	}()

	// Wait for the request to reach the queue, then free capacity.
	deadline := time.Now().Add(2 * time.Second)
	for gw.Stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	gw.Advance(2 * time.Second)
	r := <-got
	if r.code != http.StatusOK || r.decision != "served" || r.waitMs != 2000 {
		t.Fatalf("queued query: %+v, want 200/served/2000ms", r)
	}
}

func TestStatsEndpointAndTelemetry(t *testing.T) {
	plant := &fakePlant{mode: core.ModeConservative, soc: 0.42, recoverAt: time.Hour}
	gw := New(DefaultConfig(), plant)
	reg := telemetry.NewRegistry()
	gw.AttachTelemetry(reg)
	gw.Advance(0)
	gw.Offer(0, Standard)   // served
	gw.Offer(0, BestEffort) // shed: conservative drops best-effort

	srv := httptest.NewServer((&Server{GW: gw, Now: gw.Now}).Mux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Requests    int            `json:"requests"`
		ShedReasons map[string]int `json:"shed_reasons"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Requests != 2 || rep.ShedReasons["mode"] != 1 {
		t.Fatalf("stats %+v, want 2 requests with 1 mode shed", rep)
	}

	// The registry mirrors the same accounting.
	mreg := httptest.NewServer(reg.MetricsHandler())
	defer mreg.Close()
	mresp, err := http.Get(mreg.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`insure_gateway_admitted_total{class="standard"} 1`,
		`insure_gateway_shed_total{class="besteffort"} 1`,
		`insure_gateway_shed_reason_total{reason="mode"} 1`,
		`insure_gateway_admitted_dropped_total 0`,
	} {
		if !contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
