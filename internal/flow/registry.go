package flow

import (
	"errors"
	"fmt"
	"sort"

	"netupdate/internal/routing"
	"netupdate/internal/topology"
)

// Registry errors.
var (
	// ErrUnknownFlow is returned for IDs that were never registered or
	// were already removed.
	ErrUnknownFlow = errors.New("unknown flow")
	// ErrAlreadyPlaced is returned when binding a path to a flow that
	// already holds one.
	ErrAlreadyPlaced = errors.New("flow already placed")
	// ErrNotPlaced is returned when unbinding a flow that holds no path.
	ErrNotPlaced = errors.New("flow not placed")
)

// Registry owns all live flows and maintains the inverted index from links
// to the flows traversing them. It performs no bandwidth accounting — that
// stays in topology.Graph; netstate.Network keeps the two consistent.
type Registry struct {
	next  ID
	flows map[ID]*Flow
	// onLink indexes flows by every link of their placed path.
	onLink map[topology.LinkID]map[ID]*Flow
	// placed counts the flows holding a path; Bind and Unbind keep it.
	placed int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		flows:  make(map[ID]*Flow),
		onLink: make(map[topology.LinkID]map[ID]*Flow),
	}
}

// Add registers a new, unplaced flow built from spec and returns it.
func (r *Registry) Add(spec Spec) (*Flow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	f := &Flow{
		ID:     r.next,
		Src:    spec.Src,
		Dst:    spec.Dst,
		Demand: spec.Demand,
		Size:   spec.Size,
		Event:  spec.Event,
	}
	r.next++
	r.flows[f.ID] = f
	return f, nil
}

// Get returns the flow with the given ID.
func (r *Registry) Get(id ID) (*Flow, error) {
	f, ok := r.flows[id]
	if !ok {
		return nil, fmt.Errorf("flow %d: %w", int64(id), ErrUnknownFlow)
	}
	return f, nil
}

// Len returns the number of registered flows (placed or not).
func (r *Registry) Len() int { return len(r.flows) }

// Bind records that f now routes over path, updating the link index.
// The caller is responsible for having reserved bandwidth first.
func (r *Registry) Bind(f *Flow, path routing.Path) error {
	if _, ok := r.flows[f.ID]; !ok {
		return fmt.Errorf("bind %v: %w", f, ErrUnknownFlow)
	}
	if f.placed {
		return fmt.Errorf("bind %v: %w", f, ErrAlreadyPlaced)
	}
	f.path = path
	f.placed = true
	r.placed++
	for _, l := range path.Links() {
		m := r.onLink[l]
		if m == nil {
			m = make(map[ID]*Flow)
			r.onLink[l] = m
		}
		m[f.ID] = f
	}
	return nil
}

// Unbind removes f's path binding, updating the link index. The caller is
// responsible for releasing the bandwidth reservations.
func (r *Registry) Unbind(f *Flow) error {
	if _, ok := r.flows[f.ID]; !ok {
		return fmt.Errorf("unbind %v: %w", f, ErrUnknownFlow)
	}
	if !f.placed {
		return fmt.Errorf("unbind %v: %w", f, ErrNotPlaced)
	}
	for _, l := range f.path.Links() {
		delete(r.onLink[l], f.ID)
		if len(r.onLink[l]) == 0 {
			delete(r.onLink, l)
		}
	}
	f.path = routing.Path{}
	f.placed = false
	r.placed--
	return nil
}

// Remove deletes the flow from the registry entirely. Placed flows are
// unbound first.
func (r *Registry) Remove(f *Flow) error {
	if _, ok := r.flows[f.ID]; !ok {
		return fmt.Errorf("remove %v: %w", f, ErrUnknownFlow)
	}
	if f.placed {
		if err := r.Unbind(f); err != nil {
			return err
		}
	}
	delete(r.flows, f.ID)
	return nil
}

// Mark is a registry position — the next flow ID and the registered and
// placed flow counts — taken before a trial plan and handed back to
// Rewind after it.
type Mark struct {
	next   ID
	flows  int
	placed int
}

// Mark returns the registry's current position.
func (r *Registry) Mark() Mark {
	return Mark{next: r.next, flows: len(r.flows), placed: r.placed}
}

// Rewind resets the ID counter to m, so the IDs a trial plan minted
// after m and removed again are handed out afresh: a rolled-back trial
// leaves no gap in the ID sequence. It panics if the registered or placed
// flow count differs from m's — a trial flow still registered would
// collide with the next Add, a placement left behind or lost would skew
// NumPlaced — or if the counter is behind m.
func (r *Registry) Rewind(m Mark) {
	if len(r.flows) != m.flows || r.placed != m.placed || r.next < m.next {
		panic(fmt.Sprintf("flow: rewind to %+v with %d flows registered, %d placed, next ID %d",
			m, len(r.flows), r.placed, int64(r.next)))
	}
	r.next = m.next
}

// Fork returns a scratch copy of the registry: every flow is cloned (so
// Bind/Unbind on the fork never mutate the parent's flows) and the link
// index is rebuilt over the clones. Paths are shared: a Path's link
// slice is never mutated in place, only replaced. The ID counter is
// carried over so fork-minted IDs stay in the parent's ID order. Like
// topology.Graph.Fork its only callers are the test oracle and bench/,
// which fix its signature.
func (r *Registry) Fork() *Registry {
	nr := &Registry{
		next:   r.next,
		flows:  make(map[ID]*Flow, len(r.flows)),
		onLink: make(map[topology.LinkID]map[ID]*Flow, len(r.onLink)),
		placed: r.placed,
	}
	for id, f := range r.flows {
		cp := *f
		nr.flows[id] = &cp
	}
	for l, m := range r.onLink {
		nm := make(map[ID]*Flow, len(m))
		for id := range m {
			nm[id] = nr.flows[id]
		}
		nr.onLink[l] = nm
	}
	return nr
}

// FlowsOn returns the flows currently routed over the given link, sorted
// by ID so that iteration is deterministic. The slice is freshly allocated.
func (r *Registry) FlowsOn(link topology.LinkID) []*Flow {
	m := r.onLink[link]
	if len(m) == 0 {
		return nil
	}
	out := make([]*Flow, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumFlowsOn returns how many flows traverse the given link.
func (r *Registry) NumFlowsOn(link topology.LinkID) int {
	return len(r.onLink[link])
}

// All returns every registered flow sorted by ID.
func (r *Registry) All() []*Flow {
	out := make([]*Flow, 0, len(r.flows))
	for _, f := range r.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumPlaced returns how many flows hold a path: len(Placed()) without
// building the list.
func (r *Registry) NumPlaced() int { return r.placed }

// Placed returns every placed flow sorted by ID.
func (r *Registry) Placed() []*Flow {
	out := make([]*Flow, 0, len(r.flows))
	for _, f := range r.flows {
		if f.placed {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
