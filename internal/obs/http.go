package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// expvar's process-global map panics on duplicate names, but tests and
// restarts may build several handlers — so the "netupdate" var is
// published once and indirects through a swappable registry pointer
// (the most recent Handler's registry wins).
var (
	expvarPublish sync.Once
	expvarReg     atomic.Pointer[Registry]
)

// Handler serves the telemetry endpoints for a registry:
//
//	/metrics        Prometheus text exposition format
//	/debug/vars     expvar JSON (Go runtime vars + a "netupdate" map)
//	/debug/pprof/   the standard net/http/pprof profile index
//
// refresh, when non-nil, runs before /metrics and /debug/vars render:
// it brings gauges computed at read time up to date (ctl's
// Server.RefreshGauges, which waits for the round in progress). Pass nil
// for a registry whose gauges are all set as they change. Rendering
// itself only reads atomics and registry snapshots, so it is safe from
// any goroutine while the simulation runs in another.
func Handler(reg *Registry, refresh func()) http.Handler {
	expvarReg.Store(reg)
	expvarPublish.Do(func() {
		expvar.Publish("netupdate", expvar.Func(func() any {
			if r := expvarReg.Load(); r != nil {
				return r.Snapshot()
			}
			return nil
		}))
	})
	if refresh == nil {
		refresh = func() {}
	}
	vars := expvar.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		refresh()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		refresh()
		vars.ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
