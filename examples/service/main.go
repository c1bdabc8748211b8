// SLA-feasibility sweep against the prediction service — the paper's §1
// motivating question ("is it feasible to execute the workload on an
// input dataset while guaranteeing user specified SLAs?") asked over HTTP.
//
// The example starts an in-process predictd service, then acts as an HTTP
// client planning a nightly PageRank job on the Wikipedia stand-in:
//
//  1. A cold /predict call pays the full pipeline (sample runs + fit) and
//     populates the model cache.
//  2. A /predict/batch what-if sweep asks "would the job meet its SLA on
//     4, 8, 12, ... workers?" — every item reuses the one cached model
//     (the worker count is an extrapolation input, not part of the model
//     key), so the whole sweep costs milliseconds, and every answer
//     carries the probability of meeting the deadline.
//  3. A repeat of the cold call demonstrates the warm path.
//
// Run:
//
//	go run ./examples/service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"predict/internal/service"
)

func main() {
	// An in-process predictd; point the client at a real one via -addr in
	// production.
	svc := service.New(service.Config{})
	server := httptest.NewServer(svc.Handler())
	defer server.Close()
	fmt.Printf("predictd serving on %s\n\n", server.URL)

	base := service.PredictRequest{
		Dataset:   "Wiki",
		Scale:     0.1,
		Algorithm: "PR",
		Ratio:     0.1,
	}

	// 1. Cold call: fits and caches the cost model.
	cold := post[service.PredictResponse](server.URL+"/predict", base)
	fmt.Printf("cold prediction: %d iterations, %.0f s superstep phase "+
		"(model R2 %.3f, fitted in %.0f ms, planning cost %.0f simulated s)\n\n",
		cold.Iterations, cold.SuperstepSeconds, cold.ModelR2,
		cold.ElapsedMillis, cold.SampleRunSeconds)

	// 2. What-if sweep: same model, many hypothetical cluster sizes.
	const slaSeconds = 40.0
	var batch service.BatchRequest
	workerCounts := []int{4, 8, 12, 16, 24, 32}
	for _, w := range workerCounts {
		req := base
		req.Workers = w
		req.DeadlineSeconds = slaSeconds
		batch.Requests = append(batch.Requests, req)
	}
	sweep := post[service.BatchResponse](server.URL+"/predict/batch", batch)

	fmt.Printf("what-if sweep against a %.0f s SLA (%d configs in %.1f ms, %d cache hits):\n",
		slaSeconds, len(workerCounts), sweep.ElapsedMillis, sweep.CacheHits)
	fmt.Printf("  %-8s %-14s %-12s %s\n", "workers", "predicted", "P(meets SLA)", "verdict")
	for i, item := range sweep.Responses {
		if item.Error != "" {
			log.Fatalf("sweep item %d: %s", i, item.Error)
		}
		r := item.Response
		// Each answer is a distribution, so feasibility is a probability:
		// plan on the configurations that meet the SLA 95 times in 100.
		verdict := "FEASIBLE"
		if *r.ProbabilityOfDeadline < 0.95 {
			verdict = "infeasible"
		}
		fmt.Printf("  %-8d %7.0f s      %-12.3f %s\n", r.Workers, r.SuperstepSeconds, *r.ProbabilityOfDeadline, verdict)
	}

	// 3. Warm repeat of the original query.
	warm := post[service.PredictResponse](server.URL+"/predict", base)
	fmt.Printf("\nwarm repeat: cache_hit=%v in %.2f ms (cold path took %.0f ms, %.0fx speedup)\n",
		warm.CacheHit, warm.ElapsedMillis, cold.ElapsedMillis,
		cold.ElapsedMillis/warm.ElapsedMillis)

	var health map[string]any
	getJSON(server.URL+"/healthz", &health)
	fmt.Printf("healthz: models=%v fits=%v hits=%v misses=%v\n",
		health["models"], health["fits"], health["hits"], health["misses"])
}

// post sends v as JSON and decodes a T response, failing hard on errors.
func post[T any](url string, v any) *T {
	body, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, e.Error)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatalf("POST %s: decoding: %v", url, err)
	}
	return &out
}

// getJSON decodes a GET response into v.
func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
