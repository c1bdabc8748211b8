package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"predict/internal/core"
)

// fuzzService holds the one PR/Wiki model (testRequest, scale 0.02) the
// warm half of FuzzRequestBodies answers from, and its model key.
type fuzzService struct {
	svc *Service
	key string
}

// fuzzModel fits fuzzService's model once per process.
var fuzzModel = sync.OnceValues(func() (fuzzService, error) {
	svc := New(Config{})
	resp, err := svc.Predict(context.Background(), testRequest())
	if err != nil {
		return fuzzService{}, err
	}
	return fuzzService{svc, resp.ModelKey}, nil
})

// serveBody sends body to path through the service's HTTP handler.
func serveBody(svc *Service, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// FuzzRequestBodies holds the HTTP decoders and the warm path to their
// contract: whatever a client sends, the answer is a 4xx or a 200 whose
// every float is finite, never a 5xx or a panic.
//
//   - body goes through the handlers' strict decoder as a /predict and as
//     an /observe body, then through Validate and withDefaults, with no
//     service call: a request Validate accepts must still validate with
//     its defaults filled in, and an accepted actual_seconds is finite.
//   - workers, deadline and actual fill the warm-path fields of requests
//     sent through the handler against one fitted model: n%8 observations
//     of about actual seconds (so both blend regimes are reached), then a
//     /predict whose p50 ≤ p95 and whose probability_of_deadline lies in
//     [0, 1].
func FuzzRequestBodies(f *testing.F) {
	ratios17 := strings.Repeat("0.1,", 16) + "0.1"
	for _, body := range []string{
		`{}`,
		`{"dataset":"Wiki","scale":0.02,"algorithm":"PR","epsilon":0.01,"ratio":0.15,"training_ratios":[0.1,0.2]}`,
		`{"dataset":"Wiki","algorithm":"PR","epsilon":5e-324,"ratio":1}`,
		`{"dataset":"Wiki","algorithm":"PR","epsilon":1,"ratio":1.0000000000000002}`,
		`{"dataset":"Wiki","algorithm":"PR","epsilon":0.9999999999999999,"ratio":5e-324,"scale":16}`,
		`{"dataset":"Wiki","algorithm":"PR","training_ratios":[` + ratios17 + `]}`,
		`{"dataset":"Wiki","algorithm":"PR","training_ratios":[0,1,-0]}`,
		`{"dataset":"Wiki","algorithm":"PR","workers":2147483648,"deadline_seconds":1e300}`,
		`{"dataset":"Wiki","algorithm":"PR","deadline_seconds":NaN}`,
		`{"model_key":"k","actual_seconds":1e300}`,
		`{"model_key":"k","actual_seconds":-0,"workers":-1}`,
		`{"model_key":"k","actual_seconds":1e9}`,
		`{"dataset":"Wiki","algorithm":"PR","bogus":1}`,
		`[1,2`,
	} {
		f.Add([]byte(body), int64(0), 0.0, 40.0, uint8(0))
	}
	for _, secs := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 5e-324, 1e300, 1e9, 0} {
		f.Add([]byte(`{}`), int64(8), secs, secs, uint8(6))
	}
	f.Add([]byte(`{}`), int64(0), 100.0, 1.0, uint8(7))
	f.Add([]byte(`{}`), int64(1)<<31, 1.0, 1e9, uint8(5))
	f.Add([]byte(`{}`), int64(-1), 1.0, 1.0, uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, workers int64, deadline, actual float64, n uint8) {
		checkDecoded(t, body)

		fm, err := fuzzModel()
		if err != nil {
			t.Fatal(err)
		}
		svc, key := fm.svc, fm.key
		// Each input starts from an empty observation window.
		svc.obsMu.Lock()
		delete(svc.obs, key)
		svc.obsMu.Unlock()
		num := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
		for j := range int(n) % (core.DefaultObservationThreshold + 3) {
			rec := serveBody(svc, "/observe", fmt.Sprintf(`{"model_key":%q,"actual_seconds":%s,"workers":%d}`,
				key, num(actual*(1+float64(j)/8)), workers))
			if rec.Code != http.StatusOK && rec.Code/100 != 4 {
				t.Fatalf("POST /observe: HTTP %d: %s", rec.Code, rec.Body)
			}
		}
		rec := serveBody(svc, "/predict", fmt.Sprintf(
			`{"dataset":"Wiki","scale":0.02,"algorithm":"PR","epsilon":0.01,"ratio":0.15,"training_ratios":[0.1,0.2],"workers":%d,"deadline_seconds":%s}`,
			workers, num(deadline)))
		if rec.Code/100 == 4 {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /predict: HTTP %d: %s", rec.Code, rec.Body)
		}
		var resp PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode: %v: %s", err, rec.Body)
		}
		if resp.ModelKey != key || !resp.CacheHit {
			t.Fatalf("answered from %q (cache hit %v), want the fitted %q", resp.ModelKey, resp.CacheHit, key)
		}
		floats := append([]float64{resp.SuperstepSeconds, resp.RemoteMessageBytes, resp.ModelR2,
			resp.SampleRunSeconds, resp.P50Seconds, resp.P95Seconds, resp.StdDevSeconds}, resp.PerIterationSeconds...)
		for _, v := range floats {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite float in a 200: %s", rec.Body)
			}
		}
		if resp.P50Seconds > resp.P95Seconds {
			t.Fatalf("p50 %v above p95 %v", resp.P50Seconds, resp.P95Seconds)
		}
		if p := resp.ProbabilityOfDeadline; p != nil && !(*p >= 0 && *p <= 1) {
			t.Fatalf("probability_of_deadline %v out of [0, 1]", *p)
		} else if (p != nil) != (deadline > 0) {
			t.Fatalf("deadline_seconds %v answered probability_of_deadline %v", deadline, p)
		}
	})
}

// checkDecoded runs body through the handlers' decoder as a /predict and
// an /observe body and checks what the service would do with each.
func checkDecoded(t *testing.T, body []byte) {
	t.Helper()
	decode := func(path string, v any) bool {
		c := codecPool.Get().(*codec)
		defer codecPool.Put(c)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		return c.decodeJSON(httptest.NewRecorder(), req, v) == nil
	}
	var pr PredictRequest
	if decode("/predict", &pr) && pr.Validate() == nil {
		d := pr.withDefaults()
		if err := d.Validate(); err != nil {
			t.Fatalf("%s validates, but not with its defaults filled in: %v", body, err)
		}
		if !(d.Scale > 0 && d.Epsilon > 0 && d.Ratio > 0 && len(d.TrainingRatios) > 0) {
			t.Fatalf("%s: withDefaults left an unset field: %+v", body, d)
		}
	}
	var or ObserveRequest
	if decode("/observe", &or) && checkActualSeconds(or.ActualSeconds) == nil {
		if s := or.ActualSeconds; math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
			t.Fatalf("%s: actual_seconds %v accepted", body, s)
		}
	}
}
