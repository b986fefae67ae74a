package jobs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestTenantQueuedQuota: a tenant at its queued cap gets ErrTenantQuota
// while other tenants keep submitting, and the slot frees once one of its
// jobs leaves the queue.
func TestTenantQueuedQuota(t *testing.T) {
	const perJob = 32 << 10
	// Budget admits one job; everything else queues.
	s := New(Config{GlobalBudget: perJob, MaxConcurrent: 4, DOP: 4, TenantMaxQueued: 2})

	blocker, err := s.Submit(withBudget(groupSpec(t, 1, 400000, 200000), perJob))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		blocker.Cancel()
		blocker.Wait(context.Background())
	}()

	submit := func(tenant string, seed int64) (*Job, error) {
		spec := withBudget(groupSpec(t, seed, 100, 50), perJob)
		spec.Tenant = tenant
		return s.Submit(spec)
	}

	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := submit("acme", int64(10+i))
		if err != nil {
			t.Fatalf("queued submission %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := submit("acme", 20); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("third acme submission err = %v, want ErrTenantQuota", err)
	}
	// Another tenant is unaffected by acme's cap.
	if _, err := submit("globex", 30); err != nil {
		t.Fatalf("globex submission: %v", err)
	}

	m := s.Metrics()
	if m.QuotaRejected != 1 {
		t.Errorf("QuotaRejected = %d, want 1", m.QuotaRejected)
	}
	if tm := m.Tenants["acme"]; tm.Queued != 2 {
		t.Errorf("acme queued gauge = %d, want 2", tm.Queued)
	}

	// Cancelling a queued acme job frees a quota slot.
	queued[0].Cancel()
	if _, err := submit("acme", 40); err != nil {
		t.Fatalf("submission after freeing a quota slot: %v", err)
	}
}

// TestTenantRunningCapSkipsHead: a job held back only by its own tenant's
// running cap must not head-of-line-block another tenant's job behind it —
// but both must eventually run.
func TestTenantRunningCapSkipsHead(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, DOP: 2, TenantMaxRunning: 1})

	// acme occupies its single running slot.
	first, err := func() (*Job, error) {
		spec := groupSpec(t, 1, 400000, 200000)
		spec.Tenant = "acme"
		return s.Submit(spec)
	}()
	if err != nil {
		t.Fatal(err)
	}

	// A second acme job queues (its tenant is at the running cap) even
	// though an engine slot is free.
	second, err := func() (*Job, error) {
		spec := groupSpec(t, 2, 100, 50)
		spec.Tenant = "acme"
		return s.Submit(spec)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if st := second.State(); st != StateQueued {
		t.Fatalf("second acme job state = %v, want queued (tenant cap)", st)
	}

	// globex's job, submitted behind it, is admitted immediately.
	third, err := func() (*Job, error) {
		spec := groupSpec(t, 3, 100, 50)
		spec.Tenant = "globex"
		return s.Submit(spec)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := third.Wait(context.Background()); err != nil {
		t.Fatalf("globex job skipped past the capped head but failed: %v", err)
	}

	first.Cancel()
	if _, _, err := first.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("blocker: %v", err)
	}
	// With acme's slot free, the queued job runs.
	if _, _, err := second.Wait(context.Background()); err != nil {
		t.Fatalf("second acme job after cap freed: %v", err)
	}

	m := s.Metrics()
	if tm := m.Tenants["acme"]; tm.PeakRunning > 1 {
		t.Errorf("acme peak running = %d, exceeds its cap of 1", tm.PeakRunning)
	}
}

// TestTenantBudgetShare: TenantBudgetFrac caps one tenant's summed grants
// below the global budget while leaving room for others.
func TestTenantBudgetShare(t *testing.T) {
	const perJob = 32 << 10
	// Global budget fits two jobs; each tenant's share fits one.
	s := New(Config{GlobalBudget: 2 * perJob, MaxConcurrent: 4, DOP: 4, TenantBudgetFrac: 0.5})

	submit := func(tenant string, seed int64, n, card int) *Job {
		t.Helper()
		spec := withBudget(groupSpec(t, seed, n, card), perJob)
		spec.Tenant = tenant
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	a1 := submit("acme", 1, 400000, 200000)
	a2 := submit("acme", 2, 100, 50)
	if st := a2.State(); st != StateQueued {
		t.Fatalf("acme's second job state = %v, want queued (budget share)", st)
	}
	b1 := submit("globex", 3, 100, 50)
	if _, _, err := b1.Wait(context.Background()); err != nil {
		t.Fatalf("globex job under its own share: %v", err)
	}

	a1.Cancel()
	a1.Wait(context.Background())
	if _, _, err := a2.Wait(context.Background()); err != nil {
		t.Fatalf("acme's second job after share freed: %v", err)
	}
	if tm := s.Metrics().Tenants["acme"]; tm.PeakGrantedBudget > perJob {
		t.Errorf("acme peak granted = %d, exceeds its %d share", tm.PeakGrantedBudget, perJob)
	}
}

// TestCostBackpressure: with MaxQueuedCost set, a submission that would
// queue behind enough estimated cost is rejected with ErrBackpressure —
// regardless of queue length — while a job that can start immediately is
// admitted no matter its cost.
func TestCostBackpressure(t *testing.T) {
	const perJob = 32 << 10
	big := withBudget(groupSpec(t, 1, 400000, 200000), perJob)

	// Read the big job's cost estimate off a submission to size the
	// ceiling: one fits the queue, two do not.
	probe, err := New(Config{GlobalBudget: perJob, MaxConcurrent: 1, DOP: 4}).Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	probe.Cancel()
	probe.Wait(context.Background())
	cost := probe.CostEstimate()
	if cost <= 0 {
		t.Fatalf("CostEstimate = %g, want positive", cost)
	}

	s := New(Config{GlobalBudget: perJob, MaxConcurrent: 4, DOP: 4, MaxQueuedCost: 1.5 * cost})

	// An expensive job on an idle scheduler starts immediately: never
	// rejected, whatever its cost.
	blocker, err := s.Submit(big)
	if err != nil {
		t.Fatalf("idle-scheduler submission rejected: %v", err)
	}
	defer func() {
		blocker.Cancel()
		blocker.Wait(context.Background())
	}()

	// The first queued big job fits under the ceiling; the second does not.
	q1, err := s.Submit(withBudget(groupSpec(t, 2, 400000, 200000), perJob))
	if err != nil {
		t.Fatalf("first queued submission: %v", err)
	}
	if st := q1.State(); st != StateQueued {
		t.Fatalf("q1 state = %v, want queued", st)
	}
	_, err = s.Submit(withBudget(groupSpec(t, 3, 400000, 200000), perJob))
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("over-ceiling submission err = %v, want ErrBackpressure", err)
	}

	// A cheap job still fits under the remaining cost headroom.
	cheap, err := s.Submit(withBudget(groupSpec(t, 4, 50, 20), perJob))
	if err != nil {
		t.Fatalf("cheap submission under remaining headroom: %v", err)
	}

	m := s.Metrics()
	if m.BackpressureRejected != 1 {
		t.Errorf("BackpressureRejected = %d, want 1", m.BackpressureRejected)
	}
	if m.QueuedCost <= 0 {
		t.Errorf("QueuedCost gauge = %g, want positive while jobs queue", m.QueuedCost)
	}

	// Draining the queue returns the gauge to zero.
	q1.Cancel()
	cheap.Cancel()
	q1.Wait(context.Background())
	cheap.Wait(context.Background())
	if got := s.Metrics().QueuedCost; got != 0 {
		t.Errorf("QueuedCost = %g after queue drained, want 0", got)
	}
}

// TestForcedShutdownAdmitsNothing is the regression test for the forced-
// shutdown bug: once Shutdown's drain deadline passes, a finishing or
// cancelled job's dispatchLocked could admit a still-queued job onto an
// engine mid-teardown — starting work just to cancel it moments later.
// The racy interleaving (a running job finishing while Shutdown is still
// evicting the queue) is recreated deterministically: the deadline path's
// state (closed + stopping) is set by hand, then the running blocker is
// cancelled while jobs are still queued.
func TestForcedShutdownAdmitsNothing(t *testing.T) {
	const perJob = 32 << 10
	s := New(Config{GlobalBudget: perJob, MaxConcurrent: 4, DOP: 4})

	blocker, err := s.Submit(withBudget(groupSpec(t, 1, 400000, 200000), perJob))
	if err != nil {
		t.Fatal(err)
	}
	var queued []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(withBudget(groupSpec(t, int64(10+i), 1000, 500), perJob))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	// What Shutdown's deadline path sets before it starts evicting.
	s.mu.Lock()
	s.closed = true
	s.stopping = true
	s.mu.Unlock()

	// The blocker winds down while four jobs are still queued: its
	// finishJob frees the whole budget and runs dispatchLocked — which,
	// without the stopping gate, admits the queue head here.
	blocker.Cancel()
	if _, _, err := blocker.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("blocker err = %v, want ErrCancelled", err)
	}
	for i, j := range queued {
		if st := j.State(); st != StateQueued {
			t.Errorf("queued job %d state = %v after forced-shutdown began, want queued", i, st)
		}
		if !j.Started().IsZero() {
			t.Errorf("queued job %d was admitted during forced shutdown (started %v)",
				i, j.Started())
		}
	}

	// Shutdown (deadline long expired) now evicts the queue and returns.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	for i, j := range queued {
		if _, _, err := j.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
			t.Fatalf("queued job %d err = %v, want ErrCancelled", i, err)
		}
	}
	if m := s.Metrics(); m.Admitted != 1 {
		t.Errorf("Admitted = %d, want 1 (only the blocker)", m.Admitted)
	}
}

// TestTenantBudgetClamp: a grant above the tenant's budget share could
// never pass dispatch's per-tenant budget test, so Submit clamps it to the
// share as it clamps to the global budget. With two running slots and a
// quarter share, that is every default-grant job (half the global budget).
func TestTenantBudgetClamp(t *testing.T) {
	const global, share = 1 << 20, 1 << 18
	s := New(Config{GlobalBudget: global, MaxConcurrent: 2, DOP: 4, TenantBudgetFrac: 0.25, SpillDir: t.TempDir()})
	for label, spec := range map[string]Spec{
		"default grant":       groupSpec(t, 1, 2000, 50),
		"whole global budget": withBudget(groupSpec(t, 2, 2000, 50), global),
	} {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if j.Grant() != share {
			t.Errorf("%s: grant = %d, want the tenant share %d", label, j.Grant(), share)
		}
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: job still %v, never admitted", label, j.State())
		}
		if _, _, err := j.Result(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if m := s.Metrics(); m.PeakGrantedBudget > share || m.Tenants[""].PeakGrantedBudget > share {
		t.Errorf("peak granted %d (tenant %d) exceeds the tenant share %d", m.PeakGrantedBudget, m.Tenants[""].PeakGrantedBudget, share)
	}
}
