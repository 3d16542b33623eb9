package dist

import (
	"net"
	"net/http"
	"time"

	"koopmancrc/internal/obs"
)

// startDebug opens the coordinator's optional telemetry listener: the
// shared obs debug surface (obs.Mount) over the live ledger registry —
// /metrics with per-worker completed jobs, lease ages of leased jobs,
// requeue and coverage counters — and the per-job trace
// recorder at /v1/traces and /v1/traces/{id} (grant → worker span
// trees; expired leases retained as errored), plus
// /healthz for liveness probes. The endpoint is read-only and
// unauthenticated, so it belongs on loopback or an operator network,
// never the open internet.
func (c *Coordinator) startDebug(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.debugLn = ln
	mux := http.NewServeMux()
	obs.Mount(mux, c.debugRegistry(), c.recorder)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = srv.Serve(ln) // returns when Close closes the listener
	}()
	return nil
}

// DebugAddr returns the telemetry listener's address, or "" when
// CoordinatorConfig.DebugAddr was empty.
func (c *Coordinator) DebugAddr() string {
	if c.debugLn == nil {
		return ""
	}
	return c.debugLn.Addr().String()
}

// debugRegistry builds the exposition over the live ledger. Every
// collector takes c.mu only for the duration of one scrape, so
// telemetry never holds up grants; the job and worker label sets are
// bounded by the fleet size (lease ages only cover currently leased
// jobs), so scrape cardinality cannot grow with sweep length.
func (c *Coordinator) debugRegistry() *obs.Registry {
	r := obs.NewRegistry()
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return f()
		}
	}
	r.NewGaugeFunc("dist_indices_total",
		"Raw indices in the whole search space.",
		locked(func() float64 { return float64(c.begin.Total) }))
	r.NewGaugeFunc("dist_indices_done",
		"Raw indices covered by completed jobs.",
		locked(func() float64 { return float64(c.doneIdx) }))
	r.NewGaugeFunc("dist_jobs_total",
		"Jobs the space is cut into.",
		locked(func() float64 { return float64(c.totalJobs()) }))
	r.NewGaugeFunc("dist_jobs_done",
		"Jobs completed.",
		locked(func() float64 { return float64(c.doneJobs()) }))
	r.NewGaugeFunc("dist_jobs_queued",
		"Requeued jobs waiting to be granted again.",
		locked(func() float64 { return float64(len(c.queue)) }))
	r.NewGaugeFunc("dist_requeues_total",
		"Lease expiries that sent a job back to the queue.",
		locked(func() float64 { return float64(c.requeues) }))
	r.NewGaugeFunc("dist_canonical_total",
		"Canonical candidates evaluated across the fleet.",
		locked(func() float64 { return float64(c.canonical) }))
	r.NewGaugeFunc("dist_survivors",
		"Polynomials that passed every filter so far.",
		locked(func() float64 { return float64(len(c.survivors)) }))
	r.NewGaugeFunc("dist_connections",
		"Open worker connections.",
		locked(func() float64 { return float64(len(c.conns)) }))

	r.NewGaugeCollector("dist_worker_jobs_done",
		"Jobs completed per worker.",
		[]string{"worker"}, func(emit func([]string, float64)) {
			c.mu.Lock()
			defer c.mu.Unlock()
			for id, ws := range c.workers {
				emit([]string{id}, float64(ws.jobsDone))
			}
		})
	r.NewGaugeCollector("dist_lease_age_seconds",
		"Seconds since the last lease renewal of each worker's oldest leased job.",
		[]string{"worker"}, func(emit func([]string, float64)) {
			now := time.Now()
			c.mu.Lock()
			defer c.mu.Unlock()
			// One row per worker — its oldest lease — so the
			// series set stays keyed by fleet member, not by job id.
			oldest := make(map[string]float64)
			for _, l := range c.leases {
				age := now.Sub(l.deadline.Add(-c.cfg.LeaseTimeout)).Seconds()
				if age < 0 {
					age = 0
				}
				if cur, ok := oldest[l.worker]; !ok || age > cur {
					oldest[l.worker] = age
				}
			}
			for w, age := range oldest {
				emit([]string{w}, age)
			}
		})
	return r
}
