package gateway

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"insure/internal/core"
)

// FuzzParseClass checks that any class name either parses to a real class
// that round-trips through its String, or is refused — never a panic or
// an out-of-range class.
func FuzzParseClass(f *testing.F) {
	for _, s := range []string{"critical", "std", "", " BE ", "best-effort", "Class(3)", "\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseClass(s)
		if err != nil {
			return
		}
		if c >= NumClasses {
			t.Fatalf("ParseClass(%q) = %v, out of range", s, c)
		}
		if back, err := ParseClass(c.String()); err != nil || back != c {
			t.Fatalf("ParseClass(%q) = %v does not round-trip: %v, %v", s, c, back, err)
		}
	})
}

// FuzzQueryHandler drives /query through the mux with a fuzzed raw query
// string on a plant at a fuzzed ladder rung. Each input is sent twice: the
// first request takes the gateway's only token, so the second one queues
// or is shed. The request context is already cancelled, so a queued
// request answers at once instead of waiting for an Advance. The handler
// must never panic, and must answer 200, 400 or 503.
func FuzzQueryHandler(f *testing.F) {
	f.Add("class=critical", uint8(core.ModeNormal))
	f.Add("class=besteffort", uint8(core.ModeConservative))
	f.Add("class=std&class=be", uint8(core.ModeSurvival))
	f.Add("class=%zz;", uint8(core.ModeBlackout))
	f.Add("class=nope", uint8(core.ModeBlackstart))
	f.Fuzz(func(t *testing.T, raw string, mode uint8) {
		plant := &fakePlant{mode: core.OpMode(mode % 5), soc: 0.4}
		gw := New(testConfig(), plant)
		gw.Advance(0)
		mux := (&Server{GW: gw, Now: gw.Now}).Mux()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < 2; i++ {
			req := httptest.NewRequest(http.MethodGet, "/query", nil).WithContext(ctx)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable:
			default:
				t.Fatalf("query %q at %v: status %d", raw, plant.mode, rec.Code)
			}
		}
		checkBalance(t, gw.Stats())
	})
}
