package router

import (
	"context"
	"errors"
	"sync"
)

// errTenantSaturated is returned by acquire when the tenant's waiting queue
// is full; the handler maps it to 429 + Retry-After. It is the per-tenant
// analogue of mpud's 503 queue-full backpressure: bounded, immediate, never
// an invisible queue.
var errTenantSaturated = errors.New("tenant admission queue full")

// fairAdmission is a weighted-fair admission gate over the router's
// forwarding slots, implemented as stride scheduling: each tenant carries a
// virtual-time pass advanced by stride = strideScale/weight on every grant,
// and when slots are contended the waiting tenant with the smallest pass is
// served next. A tenant with weight 4 therefore gets 4× the grants of a
// weight-1 tenant under saturation, while idle tenants accumulate no credit
// (their pass is floored to the current virtual time when they return).
type fairAdmission struct {
	mu        sync.Mutex
	slots     int // in use
	maxSlots  int
	waitBound int            // per-tenant waiting cap
	waiting   int            // total waiters across tenants
	weights   map[string]int // configured weights; absent tenants get 1
	tenants   map[string]*tenantState
	unlisted  int     // tenants in the map without a configured weight, otherTenant aside
	vtime     float64 // pass of the most recent grant: the virtual clock
}

type tenantState struct {
	name     string
	weight   int
	pass     float64
	queue    []*waiter // FIFO within the tenant
	granted  uint64
	rejected uint64
}

type waiter struct {
	ch       chan struct{}
	canceled bool
}

// strideScale keeps strides integral-ish for human-readable passes; the
// algorithm only needs ratios.
const strideScale = 1 << 16

// maxUnlistedTenants caps the distinct tenant names without a configured
// weight that get their own state. X-Tenant is an unauthenticated header:
// every new name would otherwise add a tenant that dispatchLocked scans on
// each release and a series to both mpurouter_tenant_* families. Names past
// the cap share otherTenant's state, queue and series; configured tenants
// always keep their own.
const maxUnlistedTenants = 64

// otherTenant is the one tenant the overflow past maxUnlistedTenants shares.
const otherTenant = "other"

func newFairAdmission(maxSlots, waitBound int, weights map[string]int) *fairAdmission {
	if maxSlots <= 0 {
		maxSlots = 256
	}
	if waitBound <= 0 {
		waitBound = 128
	}
	return &fairAdmission{
		maxSlots:  maxSlots,
		waitBound: waitBound,
		weights:   weights,
		tenants:   map[string]*tenantState{},
	}
}

func (a *fairAdmission) tenant(name string) *tenantState {
	ts, ok := a.tenants[name]
	if !ok {
		_, listed := a.weights[name]
		if !listed && name != otherTenant {
			if a.unlisted >= maxUnlistedTenants {
				return a.tenant(otherTenant)
			}
			a.unlisted++
		}
		w := a.weights[name]
		if w <= 0 {
			w = 1
		}
		ts = &tenantState{name: name, weight: w, pass: a.vtime}
		a.tenants[name] = ts
	}
	return ts
}

func (ts *tenantState) stride() float64 { return strideScale / float64(ts.weight) }

// acquire blocks until the tenant is granted a forwarding slot, the context
// ends, or the tenant's waiting queue is full (errTenantSaturated).
func (a *fairAdmission) acquire(ctx context.Context, tenant string) error {
	a.mu.Lock()
	ts := a.tenant(tenant)
	// A tenant returning from idle starts at the current virtual time: past
	// idleness earns no burst credit.
	if ts.pass < a.vtime {
		ts.pass = a.vtime
	}
	if a.slots < a.maxSlots && a.waiting == 0 {
		a.grantLockedTo(ts)
		a.mu.Unlock()
		return nil
	}
	if len(ts.queue) >= a.waitBound {
		ts.rejected++
		a.mu.Unlock()
		return errTenantSaturated
	}
	w := &waiter{ch: make(chan struct{})}
	ts.queue = append(ts.queue, w)
	a.waiting++
	a.mu.Unlock()

	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		defer a.mu.Unlock()
		select {
		case <-w.ch:
			// Granted concurrently with cancellation: the slot is ours, so
			// hand it back before reporting the context error.
			a.slots--
			a.dispatchLocked()
		default:
			w.canceled = true
			a.waiting--
		}
		return ctx.Err()
	}
}

// release returns a slot and dispatches the next waiter by virtual time.
func (a *fairAdmission) release() {
	a.mu.Lock()
	a.slots--
	a.dispatchLocked()
	a.mu.Unlock()
}

// grantLockedTo charges ts for one grant and advances the virtual clock.
func (a *fairAdmission) grantLockedTo(ts *tenantState) {
	a.slots++
	ts.granted++
	a.vtime = ts.pass // service starts at the tenant's pass
	ts.pass += ts.stride()
}

// dispatchLocked grants freed slots to the waiting tenant with the smallest
// pass until slots or waiters run out. Canceled waiters are skipped and
// compacted in passing.
func (a *fairAdmission) dispatchLocked() {
	for a.slots < a.maxSlots && a.waiting > 0 {
		var best *tenantState
		for _, ts := range a.tenants {
			for len(ts.queue) > 0 && ts.queue[0].canceled {
				ts.queue = ts.queue[1:]
			}
			if len(ts.queue) == 0 {
				continue
			}
			if best == nil || ts.pass < best.pass ||
				(ts.pass == best.pass && ts.name < best.name) { // deterministic tie
				best = ts
			}
		}
		if best == nil {
			return // a.waiting counted only canceled entries already compacted
		}
		w := best.queue[0]
		best.queue = best.queue[1:]
		a.waiting--
		a.grantLockedTo(best)
		close(w.ch)
	}
}

// snapshot returns per-tenant grant/reject counters for the metrics plane,
// keyed by tenant name.
func (a *fairAdmission) snapshot() map[string][2]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string][2]uint64, len(a.tenants))
	for name, ts := range a.tenants {
		out[name] = [2]uint64{ts.granted, ts.rejected}
	}
	return out
}
