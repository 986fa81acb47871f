package server

import (
	"errors"
	"fmt"
	"testing"

	"poseidon/internal/trace"
)

func newTestRegistry(t *testing.T, capacity int) *Registry {
	t.Helper()
	return newRegistry(newServeParams(t, 1), capacity, []trace.OpSink{nil}, 0, 0)
}

func TestRegistryEvictsLRU(t *testing.T) {
	r := newTestRegistry(t, 2)
	for _, name := range []string{"a", "b", "c"} {
		if err := r.Register(name, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Resident(); got != 2 {
		t.Fatalf("resident = %d, want 2", got)
	}
	if r.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", r.Evictions())
	}
	// "a" was least recently used and must be the one gone.
	if _, err := r.Acquire("a"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Acquire(a) = %v, want ErrUnknownTenant", err)
	}
	for _, name := range []string{"b", "c"} {
		e, err := r.Acquire(name)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", name, err)
		}
		r.Release(e)
	}
}

func TestRegistryAcquireRefreshesLRU(t *testing.T) {
	r := newTestRegistry(t, 2)
	r.Register("a", nil, nil)
	r.Register("b", nil, nil)
	// Touch "a" so "b" becomes the eviction victim.
	e, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	r.Release(e)
	r.Register("c", nil, nil)
	if _, err := r.Acquire("b"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Acquire(b) = %v, want ErrUnknownTenant", err)
	}
	if e, err := r.Acquire("a"); err != nil {
		t.Fatalf("Acquire(a): %v", err)
	} else {
		r.Release(e)
	}
}

// A pinned entry must never be evicted: the scan skips it (counting the
// skip) and evicts the next unpinned entry, overflowing the cap when every
// entry is in use.
func TestRegistryNeverEvictsPinned(t *testing.T) {
	r := newTestRegistry(t, 2)
	r.Register("a", nil, nil)
	r.Register("b", nil, nil)
	ea, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	eb, err := r.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	// Both entries pinned: registering two more must overflow the cap
	// rather than pull keys out from under the holders.
	r.Register("c", nil, nil)
	if _, err := r.Acquire("a"); err != nil {
		t.Fatalf("pinned entry evicted: %v", err)
	}
	if r.PinnedSkips() == 0 {
		t.Fatal("eviction scan recorded no pinned skips")
	}
	if got := r.Resident(); got != 3 {
		t.Fatalf("resident = %d, want 3 (cap overflow while pinned)", got)
	}
	// After release, the next registration can evict again.
	r.Release(ea)
	r.Release(ea) // second Acquire of "a" above
	r.Release(eb)
	r.Register("d", nil, nil)
	if got := r.Resident(); got > 3 {
		t.Fatalf("resident = %d after unpinning, want eviction back toward cap", got)
	}
}

// Replacing a tenant's keys (rotation) detaches the old entry: holders of
// the old evaluator keep it until they release, new acquires see the new
// one, and releasing the detached entry doesn't corrupt the LRU.
func TestRegistryReplaceKeepsInFlightEntry(t *testing.T) {
	r := newTestRegistry(t, 4)
	r.Register("a", nil, nil)
	old, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	r.Register("a", nil, nil) // key rotation
	fresh, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if old == fresh {
		t.Fatal("replacement returned the same entry")
	}
	if old.evaluator(0) == fresh.evaluator(0) {
		t.Fatal("replacement kept the same evaluator")
	}
	r.Release(old)
	r.Release(fresh)
	if got := r.Resident(); got != 1 {
		t.Fatalf("resident = %d, want 1", got)
	}
}

func TestRegistryReleaseWithoutAcquirePanics(t *testing.T) {
	r := newTestRegistry(t, 2)
	r.Register("a", nil, nil)
	e, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	r.Release(e)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release should panic")
		}
	}()
	r.Release(e)
}

func TestRegistryRejectsBadTenantName(t *testing.T) {
	r := newTestRegistry(t, 2)
	for _, name := range []string{"", "a b", "x/y", string(make([]byte, 65))} {
		if err := r.Register(name, nil, nil); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Register(%q) = %v, want ErrBadRequest", name, err)
		}
	}
}

func TestRegistryChurn(t *testing.T) {
	r := newTestRegistry(t, 4)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("t%02d", i%8)
		if err := r.Register(name, nil, nil); err != nil {
			t.Fatal(err)
		}
		e, err := r.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		r.Release(e)
	}
	if got := r.Resident(); got != 4 {
		t.Fatalf("resident = %d, want cap 4", got)
	}
}
