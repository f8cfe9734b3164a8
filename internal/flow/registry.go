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
	// onLink[l] lists the flows whose placed path crosses link l, sorted
	// by ID; it grows to the highest link ID ever bound.
	onLink [][]*Flow
	// placed counts the flows holding a path; Bind and Unbind keep it.
	placed int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{flows: make(map[ID]*Flow)}
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
	for i, n := 0, path.Len(); i < n; i++ {
		l := path.Link(i)
		for int(l) >= len(r.onLink) {
			r.onLink = append(r.onLink, nil)
		}
		list := r.onLink[l]
		i := search(list, f.ID)
		list = append(list, nil)
		copy(list[i+1:], list[i:])
		list[i] = f
		r.onLink[l] = list
	}
	return nil
}

// Unbind removes f's path binding, updating the link index. The caller is
// responsible for releasing the bandwidth reservations. It panics if a
// link of the path does not list f: the index lost a placed flow.
func (r *Registry) Unbind(f *Flow) error {
	if _, ok := r.flows[f.ID]; !ok {
		return fmt.Errorf("unbind %v: %w", f, ErrUnknownFlow)
	}
	if !f.placed {
		return fmt.Errorf("unbind %v: %w", f, ErrNotPlaced)
	}
	for i, n := 0, f.path.Len(); i < n; i++ {
		l := f.path.Link(i)
		list := r.on(l)
		i := search(list, f.ID)
		if i == len(list) || list[i] != f {
			panic(fmt.Sprintf("flow: link index lost %v on %v", f, l))
		}
		copy(list[i:], list[i+1:])
		list[len(list)-1] = nil
		r.onLink[l] = list[:len(list)-1]
	}
	f.path = routing.Path{}
	f.placed = false
	r.placed--
	return nil
}

// search returns the position of the first flow in the ID-sorted list
// whose ID is not below id.
func search(list []*Flow, id ID) int {
	lo, hi := 0, len(list)
	// Admissions bind the newest flows, at the tail.
	if hi == 0 || list[hi-1].ID < id {
		return hi
	}
	if list[hi-1].ID == id {
		return hi - 1
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if list[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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

// NextID returns the ID the next Add assigns. A plan made on a
// netstate.View mints its flows' IDs from here, in the order Add would.
func (r *Registry) NextID() ID { return r.next }

// SkipTo advances the ID counter to id, as the Adds and Removes of flows
// a plan minted but never kept would have: applying the plan then leaves
// the same ID sequence behind. It panics if the counter is already past
// id, which would hand out an ID twice.
func (r *Registry) SkipTo(id ID) {
	if id < r.next {
		panic(fmt.Sprintf("flow: skip to ID %d behind the counter %d", int64(id), int64(r.next)))
	}
	r.next = id
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
		onLink: make([][]*Flow, len(r.onLink)),
		placed: r.placed,
	}
	for id, f := range r.flows {
		cp := *f
		nr.flows[id] = &cp
	}
	// One slab backs every list; each is capped at its length, so a
	// later Bind on the fork reallocates that list alone.
	n := 0
	for _, list := range r.onLink {
		n += len(list)
	}
	slab := make([]*Flow, 0, n)
	for l, list := range r.onLink {
		start := len(slab)
		for _, f := range list {
			slab = append(slab, nr.flows[f.ID])
		}
		nr.onLink[l] = slab[start:len(slab):len(slab)]
	}
	return nr
}

// FlowsOn returns the flows currently routed over the given link, sorted
// by ID so that iteration is deterministic. The slice is freshly allocated.
func (r *Registry) FlowsOn(link topology.LinkID) []*Flow {
	list := r.on(link)
	if len(list) == 0 {
		return nil
	}
	return append([]*Flow(nil), list...)
}

// NumFlowsOn returns how many flows traverse the given link.
func (r *Registry) NumFlowsOn(link topology.LinkID) int { return len(r.on(link)) }

// on is the index's ID-sorted list for link, owned by the registry.
func (r *Registry) on(link topology.LinkID) []*Flow {
	if link < 0 || int(link) >= len(r.onLink) {
		return nil
	}
	return r.onLink[link]
}

// FlowsAcross returns the union of the flows traversing any of the given
// links — the candidate migration set F_A of Definition 1 — sorted by
// flow ID, excluding flows of the given event (NoEvent excludes none).
// It merges the links' ID-sorted lists, so a flow crossing several of
// the links, or a link listed twice, yields the flow once. The slice is
// freshly allocated.
func (r *Registry) FlowsAcross(links []topology.LinkID, exclude EventID) []*Flow {
	n := 0
	for _, l := range links {
		n += len(r.on(l))
	}
	if n == 0 {
		return nil
	}
	return r.AppendFlowsAcross(make([]*Flow, 0, n), links, exclude)
}

// AppendFlowsAcross appends FlowsAcross(links, exclude) to dst and
// returns the extended slice.
func (r *Registry) AppendFlowsAcross(dst []*Flow, links []topology.LinkID, exclude EventID) []*Flow {
	// heads holds each link's unmerged tail; a congested set rarely
	// exceeds a fat-tree path's six links, so it starts on the stack.
	var stack [8][]*Flow
	heads := stack[:0]
	for _, l := range links {
		if list := r.on(l); len(list) > 0 {
			heads = append(heads, list)
		}
	}
	for len(heads) > 0 {
		next := heads[0][0].ID
		for _, h := range heads[1:] {
			if h[0].ID < next {
				next = h[0].ID
			}
		}
		var f *Flow
		live := heads[:0]
		for _, h := range heads {
			if h[0].ID == next {
				f, h = h[0], h[1:]
			}
			if len(h) > 0 {
				live = append(live, h)
			}
		}
		heads = live
		if exclude == NoEvent || f.Event != exclude {
			dst = append(dst, f)
		}
	}
	return dst
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
