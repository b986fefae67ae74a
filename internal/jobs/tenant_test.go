package jobs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The tests of this file pin admission order under tenant caps, cost
// backpressure and a forced shutdown. Each drives one scheduler with the
// harness's rows, the spin row as the blocker, outside the suites table:
// what they pin is which job is admitted when, not a path.

// plain is a harness outside the suites table, over cfg.
func plain(cfg Config) *harness { return &harness{suite: suite{cfg: cfg}, ran: map[string]bool{}} }

// tenant submits a spec as the named tenant.
func tenant(name string) func(*Spec) { return func(sp *Spec) { sp.Tenant = name } }

var tight32 = at("budget=32768 dop=4")

// TestTenantQueuedQuota: a tenant at its queued cap gets ErrTenantQuota
// while other tenants keep submitting, and the slot frees once one of its
// jobs leaves the queue.
func TestTenantQueuedQuota(t *testing.T) {
	h := plain(Config{GlobalBudget: 32 << 10, MaxConcurrent: 4, TenantMaxQueued: 2})
	s := h.sched(t, tight32)
	h.submit(t, s, "spin", tight32) // the budget admits one job: the rest queue
	queued := h.submit(t, s, "group#10", tight32, tenant("acme"))
	h.submit(t, s, "group#11", tight32, tenant("acme"))
	h.refused(t, s, "group#20", tight32, ErrTenantQuota, tenant("acme"))
	h.submit(t, s, "group#30", tight32, tenant("globex"))
	if m := s.Metrics(); m.QuotaRejected != 1 || m.Tenants["acme"].Queued != 2 {
		t.Errorf("QuotaRejected = %d, acme queued = %d, want 1 and 2", m.QuotaRejected, m.Tenants["acme"].Queued)
	}
	queued.job.Cancel()
	h.submit(t, s, "group#40", tight32, tenant("acme")) // the cancel freed a quota slot
}

// TestTenantRunningCapSkipsHead: a job held back only by its own tenant's
// running cap must not head-of-line-block another tenant's job behind it —
// but both must eventually run.
func TestTenantRunningCapSkipsHead(t *testing.T) {
	h, p := plain(Config{MaxConcurrent: 2, TenantMaxRunning: 1}), at("")
	s := h.sched(t, p)
	first, second := h.submit(t, s, "spin", p, tenant("acme")), h.submit(t, s, "group#2", p, tenant("acme"))
	if st := second.job.State(); st != StateQueued {
		t.Fatalf("second acme job %v, want queued (tenant cap) with a slot free", st)
	}
	h.finish(t, h.submit(t, s, "group#3", p, tenant("globex")))
	first.job.Cancel()
	h.finish(t, first)
	h.finish(t, second)
	if tm := s.Metrics().Tenants["acme"]; tm.PeakRunning > 1 {
		t.Errorf("acme peak running = %d, exceeds its cap of 1", tm.PeakRunning)
	}
}

// TestTenantBudgetShare: TenantBudgetFrac caps one tenant's summed grants
// below the global budget while leaving room for others.
func TestTenantBudgetShare(t *testing.T) {
	h := plain(Config{GlobalBudget: 2 * 32 << 10, MaxConcurrent: 4, TenantBudgetFrac: 0.5})
	s := h.sched(t, tight32)
	a1, a2 := h.submit(t, s, "spin", tight32, tenant("acme")), h.submit(t, s, "group#2", tight32, tenant("acme"))
	if st := a2.job.State(); st != StateQueued {
		t.Fatalf("acme's second job %v, want queued (budget share)", st)
	}
	h.finish(t, h.submit(t, s, "group#3", tight32, tenant("globex")))
	a1.job.Cancel()
	h.finish(t, a1)
	h.finish(t, a2)
	if tm := s.Metrics().Tenants["acme"]; tm.PeakGrantedBudget > 32<<10 {
		t.Errorf("acme peak granted = %d, exceeds its %d share", tm.PeakGrantedBudget, 32<<10)
	}
}

// TestCostBackpressure: with MaxQueuedCost set, a submission that would
// queue behind enough estimated cost is rejected with ErrBackpressure —
// regardless of queue length — while a job that can start immediately is
// admitted no matter its cost.
func TestCostBackpressure(t *testing.T) {
	h := plain(Config{GlobalBudget: 32 << 10, MaxConcurrent: 4})
	probe := h.submit(t, h.sched(t, tight32, func(c *Config) { c.MaxConcurrent = 1 }), "spin", tight32)
	probe.job.Cancel()
	h.finish(t, probe)
	cost := probe.job.CostEstimate()
	if cost <= 0 {
		t.Fatalf("CostEstimate = %g, want positive", cost)
	}
	// One spin job fits the queue's cost ceiling, two do not.
	s := h.sched(t, tight32, func(c *Config) { c.MaxQueuedCost = 1.5 * cost })
	h.submit(t, s, "spin", tight32) // an idle scheduler admits it whatever its cost
	q1 := h.submit(t, s, "spin", tight32)
	if st := q1.job.State(); st != StateQueued {
		t.Fatalf("q1 state = %v, want queued", st)
	}
	h.refused(t, s, "spin", tight32, ErrBackpressure)
	cheap := h.submit(t, s, "group#4", tight32) // under the remaining headroom
	if m := s.Metrics(); m.BackpressureRejected != 1 || m.QueuedCost <= 0 {
		t.Errorf("BackpressureRejected = %d, QueuedCost = %g, want 1 and positive", m.BackpressureRejected, m.QueuedCost)
	}
	for _, r := range []*run{q1, cheap} {
		r.job.Cancel()
		h.end(t, r, StateCancelled)
	}
	if got := s.Metrics().QueuedCost; got != 0 {
		t.Errorf("QueuedCost = %g after the queue drained, want 0", got)
	}
}

// TestForcedShutdownAdmitsNothing is the regression test for the forced-
// shutdown bug: once Shutdown's drain deadline passes, a finishing or
// cancelled job's dispatchLocked could admit a still-queued job onto an
// engine mid-teardown. The racy interleaving is recreated
// deterministically: the deadline path's state (closed + stopping) is set
// by hand, then the running blocker is cancelled while jobs still queue.
func TestForcedShutdownAdmitsNothing(t *testing.T) {
	h := plain(Config{GlobalBudget: 32 << 10, MaxConcurrent: 4})
	s := h.sched(t, tight32)
	blocker := h.submit(t, s, "spin", tight32)
	var queued []*run
	for _, name := range []string{"group#10", "group#11", "group#12", "group#13"} {
		queued = append(queued, h.submit(t, s, name, tight32))
	}
	s.mu.Lock()
	s.closed, s.stopping = true, true
	s.mu.Unlock()
	// The blocker's finishJob frees the whole budget and runs
	// dispatchLocked, which without the stopping gate admits the head.
	blocker.job.Cancel()
	h.finish(t, blocker)
	for i, r := range queued {
		if st := r.job.State(); st != StateQueued || !r.job.Started().IsZero() {
			t.Errorf("queued job %d: state %v, started %v after forced shutdown began", i, st, r.job.Started())
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	for _, r := range queued {
		h.end(t, r, StateCancelled)
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
	h := plain(Config{GlobalBudget: global, MaxConcurrent: 2, TenantBudgetFrac: 0.25})
	s := h.sched(t, at(""))
	for _, p := range []path{at("dop=4"), at("budget=1048576 dop=4")} {
		r := h.submit(t, s, "group#"+p.budget, p)
		if r.job.Grant() != share {
			t.Errorf("budget %s: grant = %d, want the tenant share %d", p.budget, r.job.Grant(), share)
		}
		h.finish(t, r)
	}
	if m := s.Metrics(); m.PeakGrantedBudget > share || m.Tenants[""].PeakGrantedBudget > share {
		t.Errorf("peak granted %d (tenant %d) exceeds the tenant share %d", m.PeakGrantedBudget, m.Tenants[""].PeakGrantedBudget, share)
	}
}
