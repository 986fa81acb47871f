package server

import (
	"container/list"
	"fmt"
	"sync"

	"poseidon/internal/ckks"
	"poseidon/internal/trace"
)

// Registry caches per-tenant evaluation state: the deserialized
// relinearization and rotation keys wrapped in a ready-to-run evaluator.
// Keys are the bulk of a deployment's memory footprint (the paper streams
// them from HBM on every keyswitch), so residency is bounded by an LRU cap
// — but an entry is only evictable while no in-flight request holds it:
// Acquire pins an entry with a reference count, Release unpins it, and the
// eviction scan skips pinned entries, overflowing the cap rather than
// pulling keys out from under a running batch. The soak test drives 32
// tenants through a 16-entry registry and decrypt-validates every response
// to prove that discipline.
type Registry struct {
	mu         sync.Mutex
	params     *ckks.Parameters
	capacity   int
	observers  []trace.OpSink // one per evaluator view of a tenant (telemetry, request tracing); never empty
	guardSeed  int64          // non-zero arms integrity guards on every tenant evaluator
	opAttempts int            // >1 installs an op-level recovery policy on every tenant evaluator

	entries map[string]*tenantEntry
	lru     *list.List // front = most recently used

	evictions   uint64
	pinnedSkips uint64 // eviction scans that skipped a pinned entry
}

// tenantEntry is one tenant's cached evaluation state. refs counts
// in-flight requests holding the entry; elem is its LRU position, nil once
// the entry has been evicted or replaced (a detached entry stays usable by
// the requests that pinned it — only residency is gone).
type tenantEntry struct {
	name string
	evs  []*ckks.Evaluator // views of one keyed evaluator, one per registry observer
	refs int
	elem *list.Element
}

// evaluator returns the view of the tenant's keyed evaluator that dispatch
// lane `lane` runs on. Views share keys, guards and recovery and differ only
// in the sink they report to: with request tracing on there is one per lane,
// so concurrent jobs of one tenant attribute their op spans separately;
// otherwise a single evaluator serves every lane.
func (e *tenantEntry) evaluator(lane int) *ckks.Evaluator { return e.evs[lane%len(e.evs)] }

// newRegistry builds an empty registry. observers holds the sink of each
// evaluator view a tenant gets — one entry (nil for no sink) when every
// dispatch lane may share an evaluator, one per lane otherwise.
func newRegistry(params *ckks.Parameters, capacity int, observers []trace.OpSink, guardSeed int64, opAttempts int) *Registry {
	return &Registry{
		params:     params,
		capacity:   capacity,
		observers:  observers,
		guardSeed:  guardSeed,
		opAttempts: opAttempts,
		entries:    map[string]*tenantEntry{},
		lru:        list.New(),
	}
}

// Register installs (or replaces — key rotation) a tenant's keys. Either
// key may be nil; operations needing the missing key fail with
// ErrKeyMissing at evaluation time. Registration may evict the
// least-recently-used unpinned tenants to respect the cap.
func (r *Registry) Register(tenant string, rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeySet) error {
	if err := validTenant(tenant); err != nil {
		return err
	}
	ev := ckks.NewEvaluator(r.params, rlk, rtk)
	if r.guardSeed != 0 {
		ev.EnableGuards(r.guardSeed)
	}
	if r.opAttempts > 1 {
		ev.SetRecoveryPolicy(&ckks.RecoveryPolicy{MaxAttempts: r.opAttempts})
	}
	evs := make([]*ckks.Evaluator, len(r.observers))
	for i, obs := range r.observers {
		evs[i] = ev.WithObserver(obs)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.entries[tenant]; ok {
		// Replace: detach the old entry from the LRU; requests already
		// pinning it keep their (old-key) evaluator until they release.
		if old.elem != nil {
			r.lru.Remove(old.elem)
			old.elem = nil
		}
	}
	e := &tenantEntry{name: tenant, evs: evs}
	e.elem = r.lru.PushFront(e)
	r.entries[tenant] = e
	r.evictLocked(e)
	return nil
}

// evictLocked trims unpinned least-recently-used entries until the cap is
// met or only pinned entries remain. keep (the entry being registered) is
// exempt: a registration must never evict itself, or a tenant whose peers
// are all pinned could upload keys and still find them gone.
func (r *Registry) evictLocked(keep *tenantEntry) {
	for r.lru.Len() > r.capacity {
		evicted := false
		for el := r.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*tenantEntry)
			if e == keep {
				continue
			}
			if e.refs > 0 {
				r.pinnedSkips++
				continue // never evict a key set a request is using
			}
			r.lru.Remove(el)
			e.elem = nil
			delete(r.entries, e.name)
			r.evictions++
			evicted = true
			break
		}
		if !evicted {
			return // every entry pinned: overflow the cap rather than break a batch
		}
	}
}

// Acquire pins a tenant's entry for the duration of one request and marks
// it most recently used. The caller must Release exactly once.
func (r *Registry) Acquire(tenant string) (*tenantEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[tenant]
	if !ok {
		return nil, fmt.Errorf("server: %w: %q has no registered keys", ErrUnknownTenant, tenant)
	}
	e.refs++
	if e.elem != nil {
		r.lru.MoveToFront(e.elem)
	}
	return e, nil
}

// Release unpins an entry acquired with Acquire. If registrations
// overflowed the cap while this entry (or its peers) were pinned, the
// release resumes trimming so the registry converges back to capacity.
func (r *Registry) Release(e *tenantEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.refs <= 0 {
		panic("server: Release without matching Acquire")
	}
	e.refs--
	if r.lru.Len() > r.capacity {
		r.evictLocked(nil)
	}
}

// Resident returns the number of cached tenants.
func (r *Registry) Resident() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Evictions returns how many entries the LRU has dropped.
func (r *Registry) Evictions() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictions
}

// PinnedSkips returns how many times the eviction scan passed over an
// entry because a request held it — the observable for the
// never-evict-in-use invariant.
func (r *Registry) PinnedSkips() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pinnedSkips
}
