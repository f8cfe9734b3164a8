package netstate

import (
	"fmt"

	"netupdate/internal/flow"
	"netupdate/internal/routing"
	"netupdate/internal/rules"
	"netupdate/internal/topology"
)

// View is a read-only planning view of a Network: the live graph,
// registry and data plane, plus what the plan in progress has claimed on
// top of them. A plan places, moves and withdraws flows on the view
// exactly as the Network's Place, Reroute and Withdraw would, and every
// read (residuals, flow paths, FlowsAcross) answers as the Network would
// after those writes; the Network itself is never written. That is what
// lets a cost probe (core.Planner.Probe) price an event without touching
// live state, and lets the winning plan be applied once, as planned.
//
// A view holds three things:
//   - a residual delta per link, stamped with the plan's generation, so
//     Reset clears it in O(1);
//   - the registry flows the plan moved or withdrew, with their current
//     path (a short slice, scanned; a 64-bit ID mask skips the scan for
//     flows the plan never touched);
//   - the flows the plan minted (the event's own flows and split
//     children), indexed by ID from the registry's next ID: a plan mints
//     IDs in the order the Network's AddFlow would.
//
// With a data plane attached the view also keeps a per-switch delta of
// rule entries, so a claim that would overflow a rule table fails on the
// view as Place would.
//
// A View is not safe for concurrent use, and it reads the Network live:
// it is valid until the Network changes, and Reset starts a new plan.
type View struct {
	net *Network
	gen uint32
	// stamp[l] == gen marks delta[l] as this plan's; delta[l] is the
	// bandwidth the plan reserved on l minus what it released.
	stamp []uint32
	delta []topology.Bandwidth
	// rstamp and rdelta are the same for rule entries, per switch.
	rstamp []uint32
	rdelta []int32
	// moved holds registry flows whose placement the plan changed;
	// mask has bit ID%64 set for each of them.
	moved []placement
	mask  uint64
	// base is the registry's next ID at Reset; minted[i] is the flow
	// the plan minted with ID base+i, and pool recycles their storage.
	base   flow.ID
	minted []placement
	pool   []*flow.Flow
	// across and extra back FlowsAcross's result.
	across, extra []*flow.Flow
}

// placement is a flow's path on the view; the zero path means unplaced.
type placement struct {
	f    *flow.Flow
	path routing.Path
}

// NewView returns an empty planning view of the network.
func NewView(n *Network) *View {
	v := &View{net: n}
	v.Reset()
	return v
}

// Reset discards the plan in progress: the view reads as the Network
// does now, and the next Mint gets the registry's next ID.
func (v *View) Reset() {
	if nl := v.net.graph.NumLinks(); len(v.stamp) < nl {
		v.stamp = make([]uint32, nl)
		v.delta = make([]topology.Bandwidth, nl)
	}
	if v.net.dataplane != nil {
		if nn := v.net.graph.NumNodes(); len(v.rstamp) < nn {
			v.rstamp = make([]uint32, nn)
			v.rdelta = make([]int32, nn)
		}
	}
	v.gen++
	if v.gen == 0 {
		clear(v.stamp)
		clear(v.rstamp)
		v.gen = 1
	}
	clear(v.moved)
	v.moved, v.mask = v.moved[:0], 0
	clear(v.minted)
	v.minted = v.minted[:0]
	v.base = v.net.reg.NextID()
}

// Graph returns the live graph. Its residuals do not include the plan's
// claims; read them through Residual.
func (v *View) Graph() *topology.Graph { return v.net.graph }

// Candidates returns the feasible path set P(f), as Network.Candidates.
func (v *View) Candidates(f *flow.Flow) routing.PathSet {
	return v.net.provider.Paths(f.Src, f.Dst)
}

// NextID returns the ID the next Mint assigns.
func (v *View) NextID() flow.ID { return v.base + flow.ID(len(v.minted)) }

// Mint registers an unplaced flow with the plan, as Network.AddFlow
// registers one with the network: it gets the next ID, and the ID stays
// taken whatever becomes of the flow. The flow belongs to the view and
// is recycled by Reset; the spec must be valid.
func (v *View) Mint(spec flow.Spec) *flow.Flow {
	i := len(v.minted)
	if i == len(v.pool) {
		v.pool = append(v.pool, new(flow.Flow))
	}
	f := v.pool[i]
	*f = flow.Flow{
		ID:     v.base + flow.ID(i),
		Src:    spec.Src,
		Dst:    spec.Dst,
		Demand: spec.Demand,
		Size:   spec.Size,
		Event:  spec.Event,
	}
	v.minted = append(v.minted, placement{f: f})
	return f
}

// isMinted reports whether f is a flow the plan minted rather than one
// of the registry's.
func (v *View) isMinted(f *flow.Flow) bool {
	i := int(f.ID - v.base)
	return i >= 0 && i < len(v.minted) && v.minted[i].f == f
}

// MintedFlow returns the flow the plan minted with the given ID.
func (v *View) MintedFlow(id flow.ID) *flow.Flow { return v.minted[id-v.base].f }

// PathOf returns f's path on the view (zero when unplaced).
func (v *View) PathOf(f *flow.Flow) routing.Path {
	if p := v.slot(f); p != nil {
		return p.path
	}
	return f.Path()
}

// slot returns the view's record of f, or nil when f is a registry flow
// the plan has not touched.
func (v *View) slot(f *flow.Flow) *placement {
	if v.isMinted(f) {
		return &v.minted[f.ID-v.base]
	}
	if v.mask&(1<<(uint64(f.ID)&63)) == 0 {
		return nil
	}
	for i := range v.moved {
		if v.moved[i].f == f {
			return &v.moved[i]
		}
	}
	return nil
}

// set records f's path on the view.
func (v *View) set(f *flow.Flow, path routing.Path) {
	if p := v.slot(f); p != nil {
		p.path = path
		return
	}
	v.moved = append(v.moved, placement{f: f, path: path})
	v.mask |= 1 << (uint64(f.ID) & 63)
}

// Residual returns link l's residual bandwidth on the view.
func (v *View) Residual(l topology.LinkID) topology.Bandwidth {
	link := v.net.graph.Link(l)
	if v.stamp[l] != v.gen || link.Down() {
		return link.Residual()
	}
	return link.Residual() - v.delta[l]
}

// minResidual returns the path's bottleneck residual on the view, as
// routing.Path.MinResidual does on a graph.
func (v *View) minResidual(path routing.Path) topology.Bandwidth {
	// A fat-tree path has at most six links: the walk stays on the stack.
	var buf [8]topology.LinkID
	links := path.AppendLinks(buf[:0])
	if len(links) == 0 {
		return 0
	}
	m := v.Residual(links[0])
	for _, l := range links[1:] {
		m = min(m, v.Residual(l))
	}
	return m
}

// Fits reports whether every link of the path has demand residual on
// the view.
func (v *View) Fits(path routing.Path, demand topology.Bandwidth) bool {
	return v.minResidual(path) >= demand
}

// Widest returns the candidate with the largest bottleneck residual on
// the view (ties: the earliest), regardless of feasibility: the desired
// path of migration.DesiredWidest.
func (v *View) Widest(candidates routing.PathSet) (routing.Path, bool) {
	best := -1
	var bestResidual topology.Bandwidth
	for i, n := 0, candidates.Len(); i < n; i++ {
		if r := v.minResidual(candidates.At(i)); best == -1 || r > bestResidual {
			best, bestResidual = i, r
		}
	}
	if best == -1 {
		return routing.Path{}, false
	}
	return candidates.At(best), true
}

// AppendCongested appends the links of path whose residual on the view
// is below demand — the set E^c of Definition 1 — in path order.
func (v *View) AppendCongested(dst []topology.LinkID, path routing.Path, demand topology.Bandwidth) []topology.LinkID {
	for i, n := 0, path.Len(); i < n; i++ {
		if l := path.Link(i); v.Residual(l) < demand {
			dst = append(dst, l)
		}
	}
	return dst
}

// FlowsAcross returns the flows crossing any of the links on the view,
// sorted by ID and excluding flows of the given event, as
// Network.FlowsAcross does. The slice belongs to the view and is valid
// until the next call.
func (v *View) FlowsAcross(links []topology.LinkID, exclude flow.EventID) []*flow.Flow {
	out := v.net.reg.AppendFlowsAcross(v.across[:0], links, exclude)
	if len(v.moved) > 0 {
		// A moved flow's registry path is stale; its view path, if it
		// crosses the links, comes back in with the extras.
		kept := out[:0]
		for _, f := range out {
			if v.slot(f) == nil {
				kept = append(kept, f)
			}
		}
		out = kept
	}
	extra := v.extra[:0]
	for _, set := range [2][]placement{v.moved, v.minted} {
		for _, p := range set {
			if p.path.IsZero() || exclude != flow.NoEvent && p.f.Event == exclude || !crossesAny(p.path, links) {
				continue
			}
			// Insertion keeps the extras ID-sorted; there are few.
			extra = append(extra, p.f)
			for j := len(extra) - 1; j > 0 && extra[j].ID < extra[j-1].ID; j-- {
				extra[j], extra[j-1] = extra[j-1], extra[j]
			}
		}
	}
	v.extra = extra
	if len(extra) > 0 {
		// Merge from the back: out's tail slots are free.
		i, j := len(out)-1, len(extra)-1
		out = append(out, extra...)
		for k := len(out) - 1; j >= 0; k-- {
			if i >= 0 && out[i].ID > extra[j].ID {
				out[k] = out[i]
				i--
			} else {
				out[k] = extra[j]
				j--
			}
		}
	}
	v.across = out
	return out
}

// crossesAny reports whether path traverses any of the links.
func crossesAny(path routing.Path, links []topology.LinkID) bool {
	for _, l := range links {
		if path.Contains(l) {
			return true
		}
	}
	return false
}

// Claim places f on path in the view: Network.Place's checks (f
// unplaced, every link up with the demand free, and with a data plane a
// free rule slot at every switch of the path) and its effect, on the
// view only.
func (v *View) Claim(f *flow.Flow, path routing.Path) error {
	if !v.PathOf(f).IsZero() {
		return fmt.Errorf("place %v: %w", f, flow.ErrAlreadyPlaced)
	}
	if path.IsZero() {
		return fmt.Errorf("place %v: empty path", f)
	}
	var buf [8]topology.LinkID
	links := path.AppendLinks(buf[:0])
	for _, l := range links {
		if err := v.reservable(l, f.Demand, 0); err != nil {
			return fmt.Errorf("place %v: %w", f, err)
		}
	}
	if err := v.ruleRoom(path); err != nil {
		return fmt.Errorf("place %v: data plane: %w", f, err)
	}
	v.shiftBandwidth(links, f.Demand)
	v.shiftRules(path, 1)
	v.set(f, path)
	return nil
}

// Shift moves f, placed on the view, onto newPath, as Network.Reroute
// would: f's own share of the links it leaves counts as free, and with a
// data plane both rule generations must fit while the move is in
// flight. On failure the view is unchanged; a bandwidth failure wraps
// ErrNoFeasiblePath.
func (v *View) Shift(f *flow.Flow, newPath routing.Path) error {
	old := v.PathOf(f)
	if old.IsZero() {
		return fmt.Errorf("reroute %v: %w", f, flow.ErrNotPlaced)
	}
	var obuf, nbuf [8]topology.LinkID
	newLinks := newPath.AppendLinks(nbuf[:0])
	for _, l := range newLinks {
		var own topology.Bandwidth
		if old.Contains(l) {
			own = f.Demand
		}
		if err := v.reservable(l, f.Demand, own); err != nil {
			return fmt.Errorf("reroute %v: %w", f, ErrNoFeasiblePath)
		}
	}
	if err := v.ruleRoom(newPath); err != nil {
		return fmt.Errorf("reroute %v: data plane: %w", f, err)
	}
	v.shiftBandwidth(old.AppendLinks(obuf[:0]), -f.Demand)
	v.shiftBandwidth(newLinks, f.Demand)
	v.shiftRules(newPath, 1)
	v.shiftRules(old, -1)
	v.set(f, newPath)
	return nil
}

// Vacate withdraws f, placed on the view, as Network.Withdraw would.
func (v *View) Vacate(f *flow.Flow) error {
	old := v.PathOf(f)
	if old.IsZero() {
		return fmt.Errorf("withdraw %v: %w", f, flow.ErrNotPlaced)
	}
	var buf [8]topology.LinkID
	v.shiftBandwidth(old.AppendLinks(buf[:0]), -f.Demand)
	v.shiftRules(old, -1)
	v.set(f, routing.Path{})
	return nil
}

// reservable reports whether demand can be reserved on l once own is
// released, as topology.Graph.Reserve would answer.
func (v *View) reservable(l topology.LinkID, demand, own topology.Bandwidth) error {
	link := v.net.graph.Link(l)
	if link.Down() {
		return fmt.Errorf("reserve %v on %v: %w", demand, link, topology.ErrLinkDown)
	}
	r := link.Residual() + own
	if v.stamp[l] == v.gen {
		r -= v.delta[l]
	}
	if r < demand {
		return fmt.Errorf("reserve %v on %v (residual %v): %w", demand, link, r, topology.ErrInsufficientBandwidth)
	}
	return nil
}

// shiftBandwidth adds d to the plan's reservation on every link.
func (v *View) shiftBandwidth(links []topology.LinkID, d topology.Bandwidth) {
	for _, l := range links {
		if v.stamp[l] != v.gen {
			v.stamp[l], v.delta[l] = v.gen, 0
		}
		v.delta[l] += d
	}
}

// ruleRoom reports whether every switch of path has a free rule slot on
// the view (always, without a data plane).
func (v *View) ruleRoom(path routing.Path) error {
	dp := v.net.dataplane
	if dp == nil {
		return nil
	}
	for i, n := 0, path.Len(); i < n; i++ {
		sw, ok := v.ruleSwitch(path.Link(i))
		if !ok {
			continue
		}
		t, err := dp.Table(sw)
		if err != nil {
			return err
		}
		if free := t.Free(); free >= 0 && free-int(v.rules(sw)) <= 0 {
			return fmt.Errorf("switch %d (%d entries): %w", int(sw), t.Len()+int(v.rules(sw)), rules.ErrTableFull)
		}
	}
	return nil
}

// shiftRules adds d rule entries at every switch of path.
func (v *View) shiftRules(path routing.Path, d int32) {
	if v.net.dataplane == nil {
		return
	}
	for i, n := 0, path.Len(); i < n; i++ {
		if sw, ok := v.ruleSwitch(path.Link(i)); ok {
			if v.rstamp[sw] != v.gen {
				v.rstamp[sw], v.rdelta[sw] = v.gen, 0
			}
			v.rdelta[sw] += d
		}
	}
}

// rules is the plan's rule-entry delta at switch sw.
func (v *View) rules(sw topology.NodeID) int32 {
	if v.rstamp[sw] != v.gen {
		return 0
	}
	return v.rdelta[sw]
}

// ruleSwitch returns the switch that holds a path's rule for link l: its
// tail, when the tail is a switch (rules.Manager's hop entries).
func (v *View) ruleSwitch(l topology.LinkID) (topology.NodeID, bool) {
	g := v.net.graph
	from := g.Link(l).From
	return from, g.Node(from).Kind.IsSwitch()
}
