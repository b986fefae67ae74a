package jobs

import (
	"context"
	"sync"
	"time"

	"blackboxflow/internal/obs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/transport"
)

// workerPool tracks the scheduler's configured flowworker fleet. Placement
// asks it which workers currently answer control pings; the sweep result
// is cached for a TTL so admitting a burst of jobs does not turn into a
// ping storm, and a worker that dies mid-fleet drops out of placement
// within one TTL instead of failing every job placed on it forever. Each
// ping doubles as a stats collection: the worker's pong payload carries
// its relay traffic totals, retained per address for metrics snapshots.
type workerPool struct {
	addrs []string
	ttl   time.Duration
	// pingHist observes each successful ping's RTT (nil = no observation).
	pingHist *obs.Histogram

	mu      sync.Mutex
	checked time.Time
	healthy []string
	// net holds the last stats each worker reported; a worker that stops
	// answering keeps its final entry (last-known totals).
	net map[string]transport.WorkerStats
}

// workerHealthTTL is how long one health sweep's verdict is reused.
const workerHealthTTL = 5 * time.Second

// workerPingTimeout bounds one health-check ping.
const workerPingTimeout = 2 * time.Second

func newWorkerPool(addrs []string, pingHist *obs.Histogram) *workerPool {
	return &workerPool{
		addrs:    append([]string(nil), addrs...),
		ttl:      workerHealthTTL,
		pingHist: pingHist,
		net:      map[string]transport.WorkerStats{},
	}
}

// healthyWorkers returns the workers that answered the most recent health
// sweep, running a fresh concurrent ping sweep when the cached verdict is
// older than the TTL. The lock is not held across the network round trips,
// so concurrent callers at TTL expiry may sweep redundantly — harmless,
// and it keeps placement from ever blocking behind a slow ping.
func (p *workerPool) healthyWorkers() []string {
	p.mu.Lock()
	if time.Since(p.checked) < p.ttl {
		h := p.healthy
		p.mu.Unlock()
		return h
	}
	p.mu.Unlock()

	alive := make([]bool, len(p.addrs))
	stats := make([]transport.WorkerStats, len(p.addrs))
	var wg sync.WaitGroup
	for i, addr := range p.addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), workerPingTimeout)
			defer cancel()
			st, err := transport.PingStats(ctx, addr, nil)
			if err != nil {
				return
			}
			alive[i] = true
			stats[i] = st
			p.pingHist.Observe(st.RTT.Seconds())
		}(i, addr)
	}
	wg.Wait()
	healthy := make([]string, 0, len(p.addrs))
	for i, ok := range alive {
		if ok {
			healthy = append(healthy, p.addrs[i])
		}
	}
	p.mu.Lock()
	p.checked = time.Now()
	p.healthy = healthy
	for i, ok := range alive {
		if ok {
			p.net[p.addrs[i]] = stats[i]
		}
	}
	p.mu.Unlock()
	return healthy
}

// workerNet returns the per-worker traffic stats from the most recent
// sweeps, in the metrics snapshot form.
func (p *workerPool) workerNet() map[string]WorkerNetStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.net) == 0 {
		return nil
	}
	out := make(map[string]WorkerNetStats, len(p.net))
	for addr, st := range p.net {
		out[addr] = WorkerNetStats{
			RTTSeconds: st.RTT.Seconds(),
			Frames:     st.Frames,
			Bytes:      st.Bytes,
		}
	}
	return out
}

// lastHealthy returns the cached sweep verdict without refreshing it (for
// metrics snapshots, which must not do network IO).
func (p *workerPool) lastHealthy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.healthy)
}

// calibrateWorkers measures the fleet's shuffle bandwidth and round-trip
// latency once (transport.TCP.Calibrate's ping and echo rounds against
// every worker) and maps the result into the optimizer's cost units. The
// scheduler runs this at construction and feeds the profile into every
// job's plan ranking.
func calibrateWorkers(addrs []string) (optimizer.NetProfile, error) {
	tp, err := transport.NewTCP(transport.TCPConfig{Workers: addrs})
	if err != nil {
		return optimizer.NetProfile{}, err
	}
	defer tp.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cal, err := tp.Calibrate(ctx)
	if err != nil {
		return optimizer.NetProfile{}, err
	}
	return optimizer.NetProfile{BytesPerSec: cal.BytesPerSec, LatencySec: cal.RTT.Seconds()}, nil
}
