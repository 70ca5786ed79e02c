// Serving runs the detection server in-process and talks to it over
// HTTP the way an external client would: train a detector, upload it to
// the registry, classify a measured event vector with it, and scrape the
// server's metrics — the detection-as-a-service workflow. It ends with
// an overload demo: a one-slot server sheds concurrent clients with 429
// and every client rides it out on seeded-backoff retries.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"fsml"
)

func main() {
	// 1. A server on an ephemeral port. With no registry directory the
	// registry lives in memory; -registry-dir (or ServeConfig.RegistryDir)
	// would persist models across restarts.
	srv := fsml.NewServer(fsml.ServeConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	client := fsml.NewServeClient("http://" + srv.Addr())
	ctx := context.Background()
	fmt.Printf("serving on http://%s\n", srv.Addr())

	// 2. Train a quick detector locally and upload it. The registry keys
	// it by content hash, so re-uploading the same model is a cache hit.
	det, _, err := fsml.Train(fsml.TrainOptions{Quick: true})
	if err != nil {
		log.Fatal(err)
	}
	model, err := det.Encode()
	if err != nil {
		log.Fatal(err)
	}
	reg, err := client.RegisterDetector(ctx, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered detector %s (cached=%t)\n", reg.Key, reg.Cached)

	// 3. Measure a known false-sharing workload locally and classify the
	// normalized vector over the wire.
	kernels, err := fsml.BuildMiniProgram(fsml.MiniProgramSpec{
		Program: "pdot", Size: 120000, Threads: 8, Mode: fsml.BadFS, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	obs := fsml.NewCollector().Measure("pdot/bad-fs", 42, kernels)
	resp, err := client.Classify(ctx, fsml.ClassifyRequest{
		Detector: reg.Key,
		Events:   obs.Sample.Names,
		Vector:   obs.Sample.Normalized(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verdict: %s (confidence %.2f, degraded=%t)\n", resp.Class, resp.Confidence, resp.Degraded)

	// 4. The metrics endpoint shows the request just served.
	metrics, err := client.MetricsText(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "fsml_requests_") || strings.HasPrefix(line, "fsml_registry_") {
			fmt.Println(line)
		}
	}

	// 5. Operating under load: a deliberately tiny server — one admission
	// slot, immediate shedding, a slow cold-start trainer — hit by eight
	// concurrent clients. Over-limit requests are shed with 429 +
	// Retry-After; each client's retry policy (capped exponential backoff
	// with seeded jitter) rides the sheds out, so every request still
	// succeeds and the shed counter shows the overload the server survived.
	tiny := fsml.NewServer(fsml.ServeConfig{
		Addr:        "127.0.0.1:0",
		MaxInflight: 1,
		ShedAfter:   -1, // no slot-wait window: demonstrate shedding
		Train: func(fsml.DetectorSpec) (*fsml.Detector, error) {
			time.Sleep(300 * time.Millisecond) // slow cold start holds the one slot
			return det, nil
		},
	})
	if err := tiny.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noverload demo on http://%s (1 admission slot)\n", tiny.Addr())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := fsml.NewServeClient("http://" + tiny.Addr())
			c.Retry = fsml.ServeRetryPolicy{
				Max:     100,
				Backoff: fsml.RetryBackoff{Seed: uint64(i + 1)},
			}
			resp, err := c.Classify(ctx, fsml.ClassifyRequest{
				Events: obs.Sample.Names,
				Vector: obs.Sample.Normalized(),
			})
			if err != nil {
				log.Fatalf("client %d gave up: %v", i, err)
			}
			fmt.Printf("client %d: %s after backoff\n", i, resp.Class)
		}(i)
	}
	wg.Wait()
	tinyMetrics, err := fsml.NewServeClient("http://" + tiny.Addr()).MetricsText(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(tinyMetrics, "\n") {
		if strings.HasPrefix(line, "fsml_shed_classify_total") {
			fmt.Println(line)
		}
	}
	tctx, tcancel := context.WithTimeout(ctx, 10*time.Second)
	defer tcancel()
	if err := tiny.Shutdown(tctx); err != nil {
		log.Fatal(err)
	}

	// 6. Graceful shutdown drains any in-flight requests.
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained and stopped")
}
