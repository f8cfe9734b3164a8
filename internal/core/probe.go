package core

import (
	"container/heap"
	"fmt"
	"time"

	"netupdate/internal/flow"
	"netupdate/internal/migration"
	"netupdate/internal/topology"
)

// ProbeStats counts the work a ProbeEngine performed.
type ProbeStats struct {
	// Hits and Misses count probe requests answered from the epoch cache
	// versus freshly planned.
	Hits   int
	Misses int
	// Cold and Incremental split Misses by cause: Cold counts probes of
	// events never cached (every probe in data-plane mode), while
	// Incremental counts re-plans of events whose cached estimate was
	// invalidated by a link change. Misses == Cold + Incremental always.
	Cold        int
	Incremental int
	// JournalMisses counts refreshes where the graph's change journal no
	// longer covered the gap since the last scan, forcing the engine to
	// treat every cached entry as potentially dirty.
	JournalMisses int
	// ProbeTime is the wall-clock time spent inside ProbeAll.
	ProbeTime time.Duration
}

// DirtyObserver receives the number of distinct dirty links each time
// the engine consumes a batch of journaled changes. obs.Histogram
// satisfies it; the indirection keeps core free of the obs package.
type DirtyObserver interface {
	Observe(v int64)
}

// HitRate returns Hits / (Hits + Misses), 0 when no probes ran.
func (s ProbeStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// probeEntry is one cached cost estimate together with its validity
// condition: the deduplicated set of links the probe read and the highest
// link version among them at probe time. Because link versions are minted
// from a single graph-wide epoch, any later change to any of these links
// strictly raises the set's max version, so "max unchanged" proves "all
// unchanged".
//
// Fully-admittable entries under the hash policy additionally carry need:
// for each desired-path link, the total demand the event's flows place on
// it. It backs the headroom revalidation of ProbeEngine.revalidate (nil
// when unavailable). cleanEvals is the planning work an all-fast-path
// replay would report, so headroom hits can account Evals faithfully.
// Each entry also carries the bookkeeping of the engine's incremental
// indexes: valid is the dirty bit maintained from the graph's change
// journal (true means no link of the read set changed since the entry
// was stamped, so the cached estimate is current without any check);
// gen is bumped whenever the entry's cost may have changed, lazily
// invalidating min-cost heap nodes that reference an older gen.
type probeEntry struct {
	id         flow.EventID
	est        Estimate
	links      []topology.LinkID
	maxVersion uint64
	need       map[topology.LinkID]topology.Bandwidth
	cleanEvals int

	valid bool
	gen   uint64
}

// ProbeEngine answers event cost probes for schedulers: an epoch cache in
// front of the planner's one trial path. A miss trial-plans the event on
// the live network exactly as Planner.Probe does (Planner.run inside the
// trial bracket, which leaves no trace) and is stored with the link set
// the plan read and those links' max version. A later probe of the same
// event whose links are all unchanged returns the cached estimate with
// zero planning work — common across scheduling rounds, because
// committing one event perturbs only a few links of a large fabric.
//
// With a data plane attached the cache is skipped — rule-table state is
// not covered by link versions — and every probe is a trial.
//
// A ProbeEngine is bound to one Planner and must be used from the
// goroutine that owns the planner's network.
type ProbeEngine struct {
	planner *Planner

	cache map[flow.EventID]*probeEntry
	stats ProbeStats

	// byLink is the reverse index read-set link -> cached entries, used
	// by refresh to dirty exactly the entries a journaled change hits.
	byLink map[topology.LinkID]map[*probeEntry]struct{}
	// scanEpoch is the graph epoch up to which journaled changes have
	// been consumed; every cached entry's valid bit is accurate as of it.
	scanEpoch uint64
	// minHeap orders heap nodes over cached entries by (cost, event ID)
	// with lazy invalidation: stale nodes (gen mismatch) are discarded
	// on pop. dirtyScratch is the reused buffer for journal reads.
	minHeap      costHeap
	dirtyScratch []topology.LinkID
	dirtyObs     DirtyObserver
	// seen[l] == seenGen marks link l as already kept by the dedupLinks
	// call in progress.
	seen    []uint64
	seenGen uint64
}

// costNode is one lazy min-cost heap node. It is stale — skipped on
// pop — once gen no longer matches entry.gen (the entry was dirtied,
// resurrected at a different cost, replaced, or forgotten).
type costNode struct {
	cost  topology.Bandwidth
	id    flow.EventID
	entry *probeEntry
	gen   uint64
}

// costHeap implements container/heap ordered by (cost, event ID); the
// ID tie-break keeps CheapestValid deterministic.
type costHeap []costNode

func (h costHeap) Len() int { return len(h) }
func (h costHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].id < h[j].id
}
func (h costHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *costHeap) Push(x any)   { *h = append(*h, x.(costNode)) }
func (h *costHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewProbeEngine returns an engine over the given planner.
func NewProbeEngine(planner *Planner) *ProbeEngine {
	return &ProbeEngine{
		planner: planner,
		cache:   make(map[flow.EventID]*probeEntry),
		byLink:  make(map[topology.LinkID]map[*probeEntry]struct{}),
	}
}

// SetDirtyObserver installs o to receive the distinct-dirty-link count
// of each consumed journal batch (nil disables). Typically an
// obs.Histogram feeding the netupdate_probe_dirty_links metric.
func (pe *ProbeEngine) SetDirtyObserver(o DirtyObserver) { pe.dirtyObs = o }

// Planner returns the live planner the engine probes on behalf of.
func (pe *ProbeEngine) Planner() *Planner { return pe.planner }

// Stats returns a snapshot of the engine's counters.
func (pe *ProbeEngine) Stats() ProbeStats { return pe.stats }

// Forget drops the cached estimate for an event. Call after the event
// executes: it will never be probed again, and its entry would otherwise
// linger for the life of the engine.
func (pe *ProbeEngine) Forget(id flow.EventID) {
	if e, ok := pe.cache[id]; ok {
		pe.dropEntry(e)
		delete(pe.cache, id)
	}
}

// dropEntry unlinks an entry from the reverse index and bumps its gen so
// any heap nodes referencing it are discarded on pop. The cache map
// itself is the caller's to update.
func (pe *ProbeEngine) dropEntry(e *probeEntry) {
	for _, l := range e.links {
		if set, ok := pe.byLink[l]; ok {
			delete(set, e)
			if len(set) == 0 {
				delete(pe.byLink, l)
			}
		}
	}
	e.valid = false
	e.gen++
}

// markValid flips a resurrected entry back to valid and indexes its
// (possibly refreshed) cost in the min-cost heap.
func (pe *ProbeEngine) markValid(e *probeEntry) {
	e.valid = true
	e.gen++
	pe.pushNode(e)
}

// pushNode records the entry's current cost in the lazy heap, compacting
// stale nodes when they outnumber live entries by too much.
func (pe *ProbeEngine) pushNode(e *probeEntry) {
	heap.Push(&pe.minHeap, costNode{cost: e.est.Cost, id: e.id, entry: e, gen: e.gen})
	if len(pe.minHeap) > 4*len(pe.cache)+64 {
		live := pe.minHeap[:0]
		for _, n := range pe.minHeap {
			if n.gen == n.entry.gen {
				live = append(live, n)
			}
		}
		pe.minHeap = live
		heap.Init(&pe.minHeap)
	}
}

// refresh consumes the graph's change journal since the last scan,
// marking dirty exactly the cached entries whose read sets intersect the
// changed links. When the journal cannot cover the gap (the engine fell
// more than journalCap epochs behind) every entry is conservatively
// marked dirty — recovering the pre-index behavior of revalidating each
// entry at its next probe.
func (pe *ProbeEngine) refresh(g *topology.Graph) {
	epoch := g.Epoch()
	if epoch == pe.scanEpoch {
		return
	}
	if len(pe.cache) == 0 {
		// Nothing to dirty; just fast-forward past the gap (background
		// fill alone can burn thousands of epochs before the first probe).
		pe.scanEpoch = epoch
		return
	}
	changes, ok := g.AppendChangesSince(pe.dirtyScratch[:0], pe.scanEpoch)
	pe.dirtyScratch = changes[:0]
	if !ok {
		pe.stats.JournalMisses++
		for _, e := range pe.cache {
			if e.valid {
				e.valid = false
				e.gen++
			}
		}
		pe.scanEpoch = epoch
		return
	}
	changes = pe.dedupLinks(g, changes)
	for _, l := range changes {
		for e := range pe.byLink[l] {
			if e.valid {
				e.valid = false
				e.gen++
			}
		}
	}
	if pe.dirtyObs != nil && len(changes) > 0 {
		pe.dirtyObs.Observe(int64(len(changes)))
	}
	pe.scanEpoch = epoch
}

// Probe estimates one event's current update cost; see ProbeAll.
func (pe *ProbeEngine) Probe(ev *Event) (*Estimate, error) {
	ests, err := pe.ProbeAll([]*Event{ev})
	if err != nil {
		return nil, err
	}
	return ests[0], nil
}

// ProbeAll estimates the current update cost of every event, returning
// estimates in input order. Cache hits report the Evals a fresh probe
// would have performed (so simulated plan-time accounting is unchanged by
// caching) while doing none of that work for real; misses report the full
// planning cost, exactly as Planner.Probe would. The live network is left
// as it was.
func (pe *ProbeEngine) ProbeAll(evs []*Event) ([]*Estimate, error) {
	start := time.Now()
	defer func() { pe.stats.ProbeTime += time.Since(start) }()

	out := make([]*Estimate, len(evs))
	live := pe.planner.Network()
	g := live.Graph()
	// Rule-table admission constraints are not captured by link versions:
	// with a data plane attached nothing is cached, so every probe misses.
	cached := live.DataPlane() == nil
	mode := modeTrial
	if cached {
		mode = modeTrackedTrial
		pe.refresh(g)
	}
	for i, ev := range evs {
		entry, ok := pe.cache[ev.ID]
		if ok && (entry.valid || pe.revalidate(g, entry)) {
			// Replanning is guaranteed to reproduce the cached estimate,
			// so skip it. Evals reports the work that hypothetical replan
			// would have performed — not the (zero) work actually done —
			// so simulated plan-time accounting is identical with and
			// without the cache; only real wall-time changes.
			//
			// A valid entry (no read-set link changed since the last
			// journal scan) hits with zero checks; a dirty one falls back
			// to revalidate, whose success resurrects it into the valid
			// set and re-indexes its cost.
			if !entry.valid {
				pe.markValid(entry)
			}
			out[i] = &Estimate{
				Cost:       entry.est.Cost,
				Feasible:   entry.est.Feasible,
				Admittable: entry.est.Admittable,
				Evals:      entry.est.Evals,
				FromCache:  true,
			}
			pe.stats.Hits++
			continue
		}
		pe.stats.Misses++
		if ok {
			pe.stats.Incremental++
		} else {
			pe.stats.Cold++
		}
		res, err := pe.planner.run(ev, mode)
		if err != nil {
			return nil, fmt.Errorf("probe %v: %w", ev, err)
		}
		out[i] = res.estimate()
		if cached {
			pe.store(g, res, out[i])
		}
	}
	return out, nil
}

// store caches a fresh estimate against live link versions. The trial
// that produced it minted none, so these versions describe exactly the
// state the estimate was computed against.
func (pe *ProbeEngine) store(g *topology.Graph, res *ExecResult, est *Estimate) {
	id := res.Event.ID
	links := pe.dedupLinks(g, est.Touched)
	if old, ok := pe.cache[id]; ok {
		pe.dropEntry(old)
	}
	entry := &probeEntry{
		id:         id,
		est:        *est,
		links:      links,
		maxVersion: g.MaxVersion(links),
		valid:      true,
		gen:        1,
	}
	if pe.planner.mig.DesiredPolicy() == migration.DesiredHash && res.Failed == 0 {
		// Every flow landed on its hash-pinned desired path (the slow
		// path places on the desired path too, after migrations).
		// Record how much the event loads each of those links;
		// revalidate re-admits by headroom instead of replanning.
		entry.need = make(map[topology.LinkID]topology.Bandwidth)
		for _, adm := range res.Admitted {
			for _, l := range adm.Path.Links() {
				entry.need[l] += adm.Flow.Demand
			}
			// An all-fast-path replay evaluates each flow's candidate
			// set once (candidate sets are static topology).
			entry.cleanEvals += len(pe.planner.Network().Candidates(adm.Flow))
		}
	}
	pe.cache[id] = entry
	for _, l := range links {
		set, ok := pe.byLink[l]
		if !ok {
			set = make(map[*probeEntry]struct{})
			pe.byLink[l] = set
		}
		set[entry] = struct{}{}
	}
	pe.pushNode(entry)
}

// CheapestValid returns the event ID and cost of the cheapest currently
// valid cached estimate, ordered by (cost, event ID). ok is false when
// no valid entry exists — nothing probed yet, everything dirtied, or a
// data plane is attached, so nothing is ever cached. The caller typically
// runs ProbeAll over its candidate set first, which validates every entry
// it can and replans the rest, making the subsequent pop authoritative
// for that set.
func (pe *ProbeEngine) CheapestValid() (flow.EventID, topology.Bandwidth, bool) {
	pe.refresh(pe.planner.Network().Graph())
	for len(pe.minHeap) > 0 {
		n := pe.minHeap[0]
		if n.gen == n.entry.gen && n.entry.valid && pe.cache[n.id] == n.entry {
			return n.id, n.cost, true
		}
		heap.Pop(&pe.minHeap)
	}
	return 0, 0, false
}

// revalidate reports whether a cached estimate still equals what a fresh
// probe would return, by two sound checks in increasing looseness:
//
//  1. Version check: no link of the read set changed since the probe
//     (max version unchanged) — the replan reads exactly the same state.
//  2. Headroom check, for fully-admittable entries under the hash policy:
//     desired paths are hash-selected from each flow's immutable
//     identity, so a replay re-picks exactly the same paths, and it
//     fast-paths all of them iff every desired-path link retains
//     residual >= the demand the event puts on it — which is what need
//     records. When headroom holds the replay's outcome is known without
//     running it: {cost 0, feasible, all admittable}, regardless of what
//     the original probe measured (an entry probed during congestion is
//     thereby "resurrected" once departures free its desired paths).
//     Residuals elsewhere in the read set are irrelevant. Without this
//     check the cache is structurally useless on fat-trees: every
//     inter-pod candidate set crosses the core layer, so any commit
//     anywhere bumps some version in almost every read set.
//
// A successful headroom check refreshes the version stamp, re-anchoring
// the cheap check-1 at the current state.
func (pe *ProbeEngine) revalidate(g *topology.Graph, e *probeEntry) bool {
	max := g.MaxVersion(e.links)
	if max <= e.maxVersion {
		return true
	}
	if e.need == nil {
		return false
	}
	for id, need := range e.need {
		if g.Link(id).Residual() < need {
			return false
		}
	}
	// A replay right now fast-paths every flow: zero cost, and exactly
	// one candidate-set evaluation of planning work per flow.
	e.est.Cost = 0
	e.est.Evals = e.cleanEvals
	e.maxVersion = max
	return true
}

// dedupLinks compacts a link list in place to its distinct members, in
// first-seen order.
func (pe *ProbeEngine) dedupLinks(g *topology.Graph, links []topology.LinkID) []topology.LinkID {
	if len(pe.seen) < g.NumLinks() {
		pe.seen = make([]uint64, g.NumLinks())
	}
	pe.seenGen++
	out := links[:0]
	for _, l := range links {
		if pe.seen[l] != pe.seenGen {
			pe.seen[l] = pe.seenGen
			out = append(out, l)
		}
	}
	return out
}
