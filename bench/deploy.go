package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"netupdate/internal/core"
	"netupdate/internal/ctl"
	"netupdate/internal/migration"
	"netupdate/internal/netstate"
	"netupdate/internal/obs"
	"netupdate/internal/routing"
	"netupdate/internal/sched"
	"netupdate/internal/shard"
	"netupdate/internal/sim"
	"netupdate/internal/topology"
	"netupdate/internal/trace"
	"netupdate/internal/wal"
)

// hooks are the traced pass's public seams into a deployment; the zero
// value is the untraced deployment every end-to-end number comes from.
type hooks struct {
	// spanSink receives stage records (single-engine deployments only:
	// shard.WorldConfig exposes no span sink).
	spanSink obs.Sink
	// wrapSched decorates the engine's scheduler (single-engine only).
	wrapSched func(sched.Scheduler) sched.Scheduler
	// wrapBackend decorates each shard backend under the gateway.
	wrapBackend func(ctl.Backend) ctl.Backend
}

// service is the serve surface shared by the engine server and the
// shard gateway.
type service interface {
	Serve(net.Listener) error
	Close() error
}

// serve binds a loopback port, serves s on it and returns the address
// plus a stop function that closes s and waits for Serve to return.
func serve(s service) (string, func() error, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()
	stop := func() error {
		err := s.Close()
		if serr := <-errc; serr != nil && !errors.Is(serr, ctl.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return l.Addr().String(), stop, nil
}

// deployment is one hosted control plane plus the two client
// connections the harness drives it with. It is built the way
// cmd/updated builds its modes: one WAL-backed engine, a leader with a
// warm follower, or a shard cluster behind a gateway.
type deployment struct {
	w    *workload
	root string // holds every WAL directory of the deployment
	h    hooks

	// engines own the state loops whose done counters signal completion
	// (the leader, or every shard world).
	engines []*ctl.Server
	cluster *shard.Cluster
	gateway *shard.Gateway
	entry   func(ctl.Request) ctl.Response // in-process twin of the client entry point
	addr    string
	stop    func() error

	followerAddr string
	followerStop func() error

	c1, c2 *ctl.Client

	// bgFlows and bgUtil describe the background fill (zero when the
	// world was restored from a checkpoint instead of filled).
	bgFlows int
	bgUtil  float64
}

// worldSeed seeds everything the deployment draws for itself —
// background fill, path selector, scheduler sampling — with the
// daemon's own default (`updated -seed 1`). The benchmark's -seed varies
// only the inputs it generates: the deployment's configuration is part
// of the system under test, not of the workload.
const worldSeed = 1

// world builds the fabric and its planner the way cmd/updated does;
// fill is false when a checkpoint will restore the flows instead.
func world(util float64, fill bool) (*core.Planner, *topology.FatTree, int, error) {
	ft, err := topology.NewFatTree(fatTreeK, topology.Gbps)
	if err != nil {
		return nil, nil, 0, err
	}
	nw := netstate.New(ft.Graph(), routing.NewFatTreeProvider(ft), routing.NewRandomFit(worldSeed+7))
	placed := 0
	if fill && util > 0 {
		gen, err := trace.NewGenerator(worldSeed, trace.YahooLike{}, ft.Hosts())
		if err != nil {
			return nil, nil, 0, err
		}
		flows, err := trace.FillBackground(nw, gen, util, 0)
		if err != nil && !errors.Is(err, trace.ErrTargetUnreachable) {
			return nil, nil, 0, err
		}
		placed = len(flows)
	}
	return core.NewPlanner(migration.NewPlanner(nw, 0), core.FailSkip), ft, placed, nil
}

func (d *deployment) meta(s sched.Scheduler) *wal.Meta {
	return &wal.Meta{
		Format: wal.FormatVersion, Scheduler: s.Name(), Seed: worldSeed,
		K: fatTreeK, Util: d.w.util, Watermark: ctl.DefaultHighWatermark, Tables: -1,
	}
}

func (d *deployment) scheduler() (sched.Scheduler, error) {
	s, err := sched.New(d.w.scheduler, sched.WithAlpha(4), sched.WithSeed(worldSeed))
	if err != nil {
		return nil, err
	}
	if d.h.wrapSched != nil {
		s = d.h.wrapSched(s)
	}
	return s, nil
}

// build hosts the workload's deployment over the WAL directories under
// root (fresh or left by an earlier deployment: recovery is the same
// construction), starts it on loopback and dials both clients. A
// workload's follower is attached separately (attachFollower), so
// recovery can time the leader alone. ckptEvery is
// ctl.WALConfig.CheckpointEvery (-1 = forced only).
func build(w *workload, root string, ckptEvery int, h hooks) (*deployment, error) {
	d := &deployment{w: w, root: root, h: h}
	var err error
	if w.shards > 1 {
		err = d.buildCluster(ckptEvery)
	} else {
		err = d.buildLeader(ckptEvery)
	}
	if err == nil {
		err = d.dial()
	}
	if err != nil {
		_ = d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) buildLeader(ckptEvery int) error {
	log, err := wal.Open(filepath.Join(d.root, "leader"), wal.WithSync(wal.SyncGroup))
	if err != nil {
		return err
	}
	s, err := d.scheduler()
	if err != nil {
		return err
	}
	planner, _, placed, err := world(d.w.util, log.Checkpoint() == nil)
	if err != nil {
		return err
	}
	d.bgFlows, d.bgUtil = placed, planner.Network().Utilization()
	srv, _, err := ctl.New(ctl.Config{
		Planner: planner, Scheduler: s, SpanSink: d.h.spanSink,
		WAL: &ctl.WALConfig{Log: log, Meta: d.meta(s), CheckpointEvery: ckptEvery},
	})
	if err != nil {
		return err
	}
	d.engines, d.entry = []*ctl.Server{srv}, srv.Do
	d.addr, d.stop, err = serve(srv)
	return err
}

func (d *deployment) buildCluster(ckptEvery int) error {
	cl, err := shard.NewCluster(shard.WorldConfig{
		K: fatTreeK, Util: d.w.util, Scheduler: d.w.scheduler, Alpha: 4, Seed: worldSeed,
		Watermark: ctl.DefaultHighWatermark, Shards: d.w.shards,
		WALDir: filepath.Join(d.root, "shards"), WALSync: "group", CheckpointEvery: ckptEvery,
	})
	if err != nil {
		return err
	}
	d.cluster = cl
	backends := cl.Backends()
	for i, wd := range cl.Worlds {
		d.engines = append(d.engines, wd.Server)
		if d.h.wrapBackend != nil {
			backends[i] = d.h.wrapBackend(backends[i])
		}
	}
	gw, err := shard.NewGateway(cl.Part, cl.Ref.Graph(), cl.Cross, backends)
	if err != nil {
		return err
	}
	d.gateway = gw
	d.entry = func(req ctl.Request) ctl.Response { return gw.Handle(req, time.Now().UnixNano()) }
	d.addr, d.stop, err = serve(gw)
	return err
}

func (d *deployment) dial() error {
	for _, c := range []**ctl.Client{&d.c1, &d.c2} {
		cl, err := ctl.DialBinary(d.addr)
		if err != nil {
			return err
		}
		*c = cl
		if err := cl.Ping(); err != nil {
			return err
		}
	}
	return nil
}

// attachFollower boots the warm follower over its own WAL directory
// exactly as `updated -follow` does and returns once the leader reports
// it synced, i.e. once group commits wait for its acks.
func (d *deployment) attachFollower(ckptEvery int) error {
	log, err := wal.Open(filepath.Join(d.root, "follower"), wal.WithSync(wal.SyncGroup))
	if err != nil {
		return err
	}
	s, err := d.scheduler()
	if err != nil {
		return err
	}
	cfg := ctl.FollowerConfig{Log: log, Meta: d.meta(s), LeaderAddr: d.addr, CheckpointEvery: ckptEvery}
	sess, err := ctl.FollowerBootstrap(cfg)
	if err != nil {
		return err
	}
	planner, _, _, err := world(d.w.util, log.Checkpoint() == nil)
	if err != nil {
		return err
	}
	srv, _, err := ctl.NewFollower(planner, s, sim.Config{}, cfg, sess)
	if err != nil {
		return err
	}
	if d.followerAddr, d.followerStop, err = serve(srv); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := d.c2.ReplStatus()
		if err != nil {
			return err
		}
		if len(info.Followers) == 1 && info.Followers[0].Synced {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not synced after 30s: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}
}

// closeFollower stops the follower (if any).
func (d *deployment) closeFollower() error {
	if d.followerStop == nil {
		return nil
	}
	err := d.followerStop()
	d.followerStop = nil
	return err
}

// closeLeader stops the client entry point and every engine behind it.
func (d *deployment) closeLeader() error {
	var first error
	if d.stop != nil {
		first = d.stop()
		d.stop = nil
	}
	if d.cluster != nil {
		if err := d.cluster.Close(); err != nil && first == nil {
			first = err
		}
		d.cluster = nil
	}
	return first
}

// close tears the whole deployment down; the WAL directories stay.
func (d *deployment) close() error {
	var first error
	for _, c := range []*ctl.Client{d.c1, d.c2} {
		if c != nil {
			_ = c.Close() // read-only teardown; the server side is checked below
		}
	}
	d.c1, d.c2 = nil, nil
	for _, f := range []func() error{d.closeFollower, d.closeLeader} {
		if err := f(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counter sums one registry counter over the deployment's engines. It
// reads atomics only and never enters a state loop.
func (d *deployment) counter(name string) int64 {
	var sum int64
	for _, e := range d.engines {
		if v, ok := e.Registry().Snapshot()[name].(int64); ok {
			sum += v
		}
	}
	return sum
}

const doneCounter = "netupdate_events_done_total"

// waitDone blocks until the engines have completed target events in
// total. Completion is read from the metric registries (atomics), not
// from Stats: OpStats walks the whole collector inside the state loop
// (O(history)) and polling it halves the drain rate it is measuring.
func (d *deployment) waitDone(target int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for d.counter(doneCounter) < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d events done after %v", d.counter(doneCounter), target, timeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

// checkpoint forces a checkpoint on every engine (a follower follows
// the leader's announcement) and returns the bytes of checkpoint state
// now on disk.
func (d *deployment) checkpoint() (int64, error) {
	for _, e := range d.engines {
		if err := e.ForceCheckpoint(); err != nil {
			return 0, err
		}
	}
	var bytes int64
	err := filepath.WalkDir(d.root, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() || de.Name() != "checkpoint.json" || filepath.Base(filepath.Dir(path)) == "follower" {
			return err
		}
		fi, err := de.Info()
		if err == nil {
			bytes += fi.Size()
		}
		return err
	})
	return bytes, err
}
