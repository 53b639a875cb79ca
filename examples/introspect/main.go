// Introspect: serve a live runtime's performance counters over HTTP while
// a workload runs — the operational face of the paper's "counters are
// available at runtime" premise. Query it from another terminal:
//
//	curl localhost:8090/counters?prefix=/threads/count
//	curl localhost:8090/counter/threads/idle-rate
//	curl localhost:8090/histogram/threads/time/phase-duration-histogram
//	curl localhost:8090/metrics          # OpenMetrics exposition
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"taskgrain/internal/introspect"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskrt"
)

func main() {
	addr := flag.String("addr", "localhost:8090", "HTTP listen address")
	seconds := flag.Int("seconds", 10, "how long to keep generating load")
	flag.Parse()

	rt := taskrt.New(taskrt.WithWorkers(runtime.GOMAXPROCS(0)))
	rt.Start()
	defer rt.Shutdown()

	srv, errc := introspect.Serve(*addr, rt.Counters())
	defer srv.Close()
	fmt.Printf("serving counters on http://%s (for %ds)\n", *addr, *seconds)
	fmt.Printf("try: curl %s/counter/threads/idle-rate\n\n", *addr)

	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	round := 0
	for time.Now().Before(deadline) {
		select {
		case err := <-errc:
			fmt.Println("introspect server:", err)
			return
		default:
		}
		if _, err := stencil.Run(rt, stencil.Config{
			TotalPoints: 500_000, PointsPerPartition: 10_000, TimeSteps: 5,
		}); err != nil {
			fmt.Println("introspect:", err)
			return
		}
		round++
		idle, _ := rt.Counters().Value("/threads/idle-rate")
		nt, _ := rt.Counters().Value("/threads/count/cumulative")
		fmt.Printf("round %-3d tasks %-8.0f idle %.1f%%\n", round, nt, idle*100)
	}
}
