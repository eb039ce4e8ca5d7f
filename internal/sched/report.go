package sched

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// TenantSLO is one tenant's slice of the SLO accounting.
type TenantSLO struct {
	Tenant             string
	Submitted          int
	Admitted           int
	RejectedQueueFull  int
	RejectedInfeasible int
	RejectedNoDevices  int
	Completed          int
	Missed             int
	Failed             int
	Shed               int
	EnergyJ            float64
	MaxLatenessS       float64
}

// Report is the SLO accounting of one scheduler run: what was admitted, what
// completed and how late, what every recovery mechanism cost, and where the
// energy went. All fields are deterministic for a fixed cluster seed, fault
// plan and job stream.
type Report struct {
	Policy        string
	StaticFreqMHz int
	Devices       int

	// Admission.
	Submitted          int
	Admitted           int
	Rejected           int
	RejectedQueueFull  int
	RejectedInfeasible int
	RejectedNoDevices  int

	// Outcomes.
	Completed int
	Missed    int // completed after the deadline
	Failed    int // abandoned (retry or timeout budget exhausted)
	Shed      int // admitted, then dropped during failover re-admission

	// Lateness of completed jobs (zero when on time).
	P50LatenessS float64
	P99LatenessS float64
	MaxLatenessS float64

	// Robustness event counts.
	Retries       int // transient-fault retries
	Failovers     int // permanent device losses observed
	Requeues      int // in-flight jobs requeued off a dead device
	Migrations    int // jobs whose next attempt ran on a different device
	Deferrals     int // jobs that declined an idle device on deadline grounds
	Escalations   int // decisions forced to the fastest clock to chase a deadline
	ThrottledRuns int // runs observed below the commanded clock
	Retunes       int // decisions re-tuned against an observed thermal cap
	CapProbes     int // capped decisions overridden to probe above the cap
	ClockRejects  int // clock-set rejections absorbed

	// Cost accounting.
	MakespanS        float64
	BusyTimeS        float64 // summed device occupancy (attempts + backoff)
	WastedTimeS      float64 // device time burned on aborted attempts
	WastedEnergyJ    float64
	BackoffTimeS     float64
	ActiveEnergyJ    float64 // device counters (waste included) + backoff idle burn
	IdleEnergyJ      float64 // idle power over un-occupied device time to makespan
	TotalEnergyJ     float64
	SurvivingDevices int

	Tenants []TenantSLO // sorted by tenant name, filled by finalize

	tenants        map[string]*TenantSLO
	latenesses     []float64
	backoffEnergyJ float64
}

func newReport(policy Policy, staticMHz, devices int) *Report {
	return &Report{
		Policy:        policy.String(),
		StaticFreqMHz: staticMHz,
		Devices:       devices,
		tenants:       make(map[string]*TenantSLO),
	}
}

// tenant returns (creating on first use) the tenant's accounting row.
func (r *Report) tenant(name string) *TenantSLO {
	t := r.tenants[name]
	if t == nil {
		t = &TenantSLO{Tenant: name}
		r.tenants[name] = t
	}
	return t
}

// MissRate is the fraction of admitted work that violated its SLO: completed
// late, abandoned, or shed during failover. A job the scheduler accepted and
// never delivered missed its deadline by definition, so failures and sheds
// count as misses — otherwise a policy could look better by dropping work.
func (r *Report) MissRate() float64 {
	if r.Admitted == 0 {
		return 0
	}
	return float64(r.Missed+r.Failed+r.Shed) / float64(r.Admitted)
}

// percentile is the nearest-rank percentile of a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// finalize freezes the derived fields: totals, lateness percentiles and the
// sorted tenant table.
func (r *Report) finalize() {
	r.Submitted = r.Admitted + r.Rejected
	slices.Sort(r.latenesses)
	r.P50LatenessS = percentile(r.latenesses, 0.50)
	r.P99LatenessS = percentile(r.latenesses, 0.99)
	if n := len(r.latenesses); n > 0 {
		r.MaxLatenessS = r.latenesses[n-1]
	}
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	r.Tenants = r.Tenants[:0]
	for _, name := range names {
		r.Tenants = append(r.Tenants, *r.tenants[name])
	}
}

// WriteText renders the report deterministically.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("policy=%s static=%dMHz devices=%d surviving=%d\n",
		r.Policy, r.StaticFreqMHz, r.Devices, r.SurvivingDevices); err != nil {
		return err
	}
	if err := p("jobs: submitted=%d admitted=%d completed=%d failed=%d shed=%d\n",
		r.Submitted, r.Admitted, r.Completed, r.Failed, r.Shed); err != nil {
		return err
	}
	if err := p("rejections: queue-full=%d infeasible=%d no-devices=%d\n",
		r.RejectedQueueFull, r.RejectedInfeasible, r.RejectedNoDevices); err != nil {
		return err
	}
	if err := p("slo: miss-rate=%.2f%% deadline-misses=%d p50-lateness=%.3fs p99-lateness=%.3fs max-lateness=%.3fs\n",
		100*r.MissRate(), r.Missed, r.P50LatenessS, r.P99LatenessS, r.MaxLatenessS); err != nil {
		return err
	}
	if err := p("energy: total=%.1fJ active=%.1fJ idle=%.1fJ wasted=%.1fJ\n",
		r.TotalEnergyJ, r.ActiveEnergyJ, r.IdleEnergyJ, r.WastedEnergyJ); err != nil {
		return err
	}
	if err := p("time: makespan=%.3fs busy=%.3fs wasted=%.3fs backoff=%.3fs\n",
		r.MakespanS, r.BusyTimeS, r.WastedTimeS, r.BackoffTimeS); err != nil {
		return err
	}
	if err := p("robustness: retries=%d failovers=%d requeues=%d migrations=%d deferrals=%d escalations=%d throttled-runs=%d retunes=%d cap-probes=%d clock-rejects=%d\n",
		r.Retries, r.Failovers, r.Requeues, r.Migrations, r.Deferrals,
		r.Escalations, r.ThrottledRuns, r.Retunes, r.CapProbes, r.ClockRejects); err != nil {
		return err
	}
	for _, t := range r.Tenants {
		if err := p("tenant %-10s submitted=%-3d admitted=%-3d completed=%-3d missed=%-2d failed=%-2d shed=%-2d rejected=%-2d energy=%.1fJ max-lateness=%.3fs\n",
			t.Tenant, t.Submitted, t.Admitted, t.Completed, t.Missed, t.Failed, t.Shed,
			t.RejectedQueueFull+t.RejectedInfeasible+t.RejectedNoDevices,
			t.EnergyJ, t.MaxLatenessS); err != nil {
			return err
		}
	}
	return nil
}
