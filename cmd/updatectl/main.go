// Command updatectl is the client for the update-controller daemon
// (cmd/updated).
//
// Usage:
//
//	updatectl -addr host:7421 ping
//	updatectl -addr host:7421 stats
//	updatectl -addr host:7421 submit trace.jsonl   # events from cmd/tracegen
//	updatectl -addr host:7421 -batch 64 submit trace.jsonl
//	updatectl -addr host:7421 status <event-id>
//	updatectl -addr host:7421 results              # the retained window, completion order
//	updatectl -addr host:7421 snapshot > state.json
//	updatectl -addr host:7421 trace [n] > trace.jsonl
//	updatectl -addr host:7421 fault link-down -link 12
//	updatectl -addr host:7421 fault install-timeout -times 2
//	updatectl -addr host:7421 repl status
//	updatectl -addr follower:7421 repl promote
//	updatectl wal info /var/lib/updated/wal            # offline WAL inspection
//	updatectl wal verify /var/lib/updated/wal
//	updatectl wal dump /var/lib/updated/wal > records.jsonl
//
// Every command that talks to a server dials it in the binary v2
// framing and prints the JSON bodies of the answers, or a readable
// summary of them: updatectl is the protocol's debugging surface.
//
// wal inspects a daemon's write-ahead log directory without a server:
// info prints the meta, checkpoint and segment layout, verify re-reads
// every frame (CRC-checked) and reports torn tails, dump writes every
// record after the checkpoint as JSON lines.
//
// submit reads JSON Lines (one event per line, the cmd/tracegen format),
// submits every event, waits for completion, and prints per-event metrics.
// With -batch n > 1 it groups events into submit-batch requests and backs
// off on overload rejections, honoring the server's retry-after hint.
//
// status and results read the daemon's memory of finished events, which
// is bounded: the last 8192 completions are kept one by one (stats shows
// how many, "last M retained"), older ones only in the stats totals. An
// ID that completed longer ago answers "unknown", like an ID never
// admitted — which is also what submit's wait reports for the head of a
// trace file much longer than the window; cmd/loadgen is the tool for
// volume.
//
// fault injects a failure into the running schedule: link-down/link-up
// take -link, switch-down/switch-up take -node, install-timeout takes
// -event (0 = next executed) and -times. The response reports what was
// disrupted and any repair event minted to re-admit the affected flows.
//
// repl status prints the server's replication role, term, log position
// and either its registered followers (leader) or its leader address
// and fold lag (follower). repl promote asks a warm follower to take
// over as leader: it folds what it acked but has not folded yet, drains
// its queue, fences the old leader with a bumped term and starts
// accepting writes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"netupdate/internal/ctl"
	"netupdate/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("updatectl", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7421", "controller address")
		timeout = fs.Duration("timeout", 30*time.Second, "per-event wait timeout for submit")
		batch   = fs.Int("batch", 1, "submit events in batches of this size (one submit-batch request each, with overload backoff)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprintln(os.Stderr, "updatectl: need a command: ping|stats|submit|status|results|snapshot|trace|fault|repl|wal")
		return 2
	}
	if rest[0] == "wal" {
		// Offline log inspection: no server, no dial (except `wal info
		// -addr`, which dials inside walCmd for live fsync stats).
		return walCmd(rest[1:], stdout)
	}
	if rest[0] == "trace" && len(rest) >= 2 && rest[1] == "report" {
		// Offline span-file analysis: no server, no dial.
		return traceReport(rest[2:], stdout)
	}

	client, err := ctl.DialBinary(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
		return 1
	}
	defer func() {
		if err := client.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: close: %v\n", err)
		}
	}()

	switch rest[0] {
	case "ping":
		if err := client.Ping(); err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "ok")
		return 0

	case "stats":
		stats, err := client.Stats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "scheduler      %s\n", stats.Scheduler)
		switch {
		case stats.ShardID > 0:
			fmt.Fprintf(stdout, "shard          %d of %d\n", stats.ShardID, stats.Shards)
		case stats.Shards > 1:
			fmt.Fprintf(stdout, "sharding       gateway over %d shards, cross-shard %d admitted / %d pool-rejected\n",
				stats.Shards, stats.CrossEvents, stats.CrossRejected)
		}
		fmt.Fprintf(stdout, "utilization    %.3f\n", stats.Utilization)
		fmt.Fprintf(stdout, "flows placed   %d\n", stats.FlowsPlaced)
		fmt.Fprintf(stdout, "events queued  %d\n", stats.EventsQueued)
		fmt.Fprintf(stdout, "events done    %d (last %d retained)\n", stats.EventsDone, stats.EventsRetained)
		fmt.Fprintf(stdout, "total cost     %.1f Mbps\n", float64(stats.TotalCostBps)/1e6)
		fmt.Fprintf(stdout, "avg ECT        %v\n", stats.AvgECT)
		fmt.Fprintf(stdout, "tail ECT       %v\n", stats.TailECT)
		fmt.Fprintf(stdout, "avg delay      %v\n", stats.AvgQueuingDelay)
		fmt.Fprintf(stdout, "plan time      %v\n", stats.PlanTime)
		fmt.Fprintf(stdout, "virtual clock  %v\n", stats.VirtualClock)
		fmt.Fprintf(stdout, "rounds         %d\n", stats.Rounds)
		fmt.Fprintf(stdout, "probes         %d\n", stats.Probes)
		fmt.Fprintf(stdout, "codec          %d v2 conns, %d v2 frames\n",
			stats.CodecV2Conns, stats.FramesV2)
		fmt.Fprintf(stdout, "faults         %d injected, %d links down, %d repair events, %d flows disrupted\n",
			stats.FaultsInjected, stats.LinksDown, stats.RepairEvents, stats.FlowsDisrupted)
		fmt.Fprintf(stdout, "installs       %d retries, %d rollbacks\n",
			stats.InstallRetries, stats.InstallRollbacks)
		fmt.Fprintf(stdout, "ingest         %d accepted, %d rejected, %d retried, %d batches (watermark %d)\n",
			stats.IngestAccepted, stats.IngestRejected, stats.IngestRetried,
			stats.IngestBatches, stats.IngestWatermark)
		if stats.WALEnabled {
			fmt.Fprintf(stdout, "wal            seq %d, %d appends, %d checkpoints (covered seq %d)\n",
				stats.WALLastSeq, stats.WALAppends, stats.WALCheckpoints, stats.WALCheckpointSeq)
			fmt.Fprintf(stdout, "recovery       %d records replayed in %d ms\n",
				stats.WALReplayed, stats.WALRecoveryMs)
		}
		if stats.LatencyE2EP99Ns > 0 {
			fmt.Fprintf(stdout, "latency e2e    p50 %v, p95 %v, p99 %v, p99.9 %v\n",
				time.Duration(stats.LatencyE2EP50Ns), time.Duration(stats.LatencyE2EP95Ns),
				time.Duration(stats.LatencyE2EP99Ns), time.Duration(stats.LatencyE2EP999Ns))
			fmt.Fprintf(stdout, "latency split  queue p50 %v / p99 %v, rounds p50 %v / p99 %v, %d spans dropped\n",
				time.Duration(stats.LatencyQueueP50Ns), time.Duration(stats.LatencyQueueP99Ns),
				time.Duration(stats.LatencyRoundsP50Ns), time.Duration(stats.LatencyRoundsP99Ns),
				stats.SpansDropped)
		}
		if stats.WALSyncPolicy != "" {
			fmt.Fprintf(stdout, "wal fsync      policy %s, %d syncs, p50 %v, p99 %v\n",
				stats.WALSyncPolicy, stats.WALFsyncCount,
				time.Duration(stats.WALFsyncP50Ns), time.Duration(stats.WALFsyncP99Ns))
		}
		return 0

	case "trace":
		n := 0 // all retained records
		if len(rest) >= 2 {
			v, err := strconv.Atoi(rest[1])
			if err != nil {
				fmt.Fprintf(os.Stderr, "updatectl: bad record count %q\n", rest[1])
				return 2
			}
			n = v
		}
		records, err := client.Trace(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
			return 1
		}
		enc := json.NewEncoder(stdout)
		for i := range records {
			if err := enc.Encode(&records[i]); err != nil {
				fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
				return 1
			}
		}
		return 0

	case "status":
		if len(rest) < 2 {
			fmt.Fprintln(os.Stderr, "updatectl: status needs an event id")
			return 2
		}
		id, err := strconv.ParseInt(rest[1], 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: bad event id %q\n", rest[1])
			return 2
		}
		st, err := client.Status(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
			return 1
		}
		printStatus(stdout, st)
		return 0

	case "results":
		results, err := client.Results()
		if err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
			return 1
		}
		for _, st := range results {
			printStatus(stdout, st)
		}
		return 0

	case "snapshot":
		snap, err := client.Snapshot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
			return 1
		}
		if err := snap.Write(stdout); err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
			return 1
		}
		return 0

	case "submit":
		if len(rest) < 2 {
			fmt.Fprintln(os.Stderr, "updatectl: submit needs a trace file (- for stdin)")
			return 2
		}
		var in io.Reader = os.Stdin
		if rest[1] != "-" {
			f, err := os.Open(rest[1])
			if err != nil {
				fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
				return 1
			}
			defer func() {
				if err := f.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "updatectl: close trace: %v\n", err)
				}
			}()
			in = f
		}
		return submitAll(client, in, stdout, *timeout, *batch)

	case "fault":
		if len(rest) < 2 {
			fmt.Fprintln(os.Stderr, "updatectl: fault needs an action: link-down|link-up|switch-down|switch-up|install-timeout")
			return 2
		}
		ffs := flag.NewFlagSet("fault", flag.ContinueOnError)
		var (
			link  = ffs.Int("link", 0, "target link index (link-down/link-up)")
			node  = ffs.Int("node", 0, "target switch index (switch-down/switch-up)")
			event = ffs.Int64("event", 0, "target event for install-timeout (0 = next executed)")
			times = ffs.Int("times", 1, "how many install attempts fail (install-timeout)")
		)
		if err := ffs.Parse(rest[2:]); err != nil {
			return 2
		}
		res, err := client.Fault(ctl.FaultSpec{
			Action: rest[1], Link: *link, Node: *node, Event: *event, Times: *times,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "fault %s: %d links changed, %d flows disrupted, %d links down\n",
			res.Action, res.LinksChanged, res.FlowsAffected, res.LinksDown)
		if res.RepairEventID != 0 {
			fmt.Fprintf(stdout, "repair event %d queued\n", res.RepairEventID)
		}
		return 0

	case "repl":
		if len(rest) < 2 {
			fmt.Fprintln(os.Stderr, "updatectl: repl needs a subcommand: status|promote")
			return 2
		}
		var info ctl.ReplInfo
		switch rest[1] {
		case "status":
			info, err = client.ReplStatus()
		case "promote":
			info, err = client.Promote()
		default:
			fmt.Fprintf(os.Stderr, "updatectl: unknown repl subcommand %q (want status or promote)\n", rest[1])
			return 2
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
			return 1
		}
		printRepl(stdout, info)
		return 0

	default:
		fmt.Fprintf(os.Stderr, "updatectl: unknown command %q\n", rest[0])
		return 2
	}
}

// printRepl renders a repl status/promote response: common role line,
// then the follower's session view or the leader's follower table.
func printRepl(w io.Writer, info ctl.ReplInfo) {
	fmt.Fprintf(w, "role        %s (term %d)\n", info.Role, info.Term)
	fmt.Fprintf(w, "last seq    %d\n", info.LastSeq)
	if info.LeaderAddr != "" {
		fmt.Fprintf(w, "leader      %s (lag %d records)\n", info.LeaderAddr, info.LagRecords)
	}
	if info.LastError != "" {
		fmt.Fprintf(w, "last error  %s\n", info.LastError)
	}
	for _, f := range info.Followers {
		state := "catching up"
		if f.Synced {
			state = "synced"
		}
		fmt.Fprintf(w, "follower    %s: acked seq %d, lag %d (%s)\n",
			f.Addr, f.AckedSeq, f.LagRecords, state)
	}
	if info.FailoverMs > 0 {
		fmt.Fprintf(w, "failover    promoted in %d ms\n", info.FailoverMs)
	}
}

// submitAll reads JSONL events and submits them — one request per event,
// or in submit-batch requests of batchSize with overload backoff — then
// waits for completion.
func submitAll(client *ctl.Client, in io.Reader, stdout io.Writer, timeout time.Duration, batchSize int) int {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<24)
	var specs []ctl.EventSpec
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		// A cmd/tracegen line is an EventSpec plus its "id", which the
		// server assigns anew.
		var spec ctl.EventSpec
		if err := json.Unmarshal(line, &spec); err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: bad trace line: %v\n", err)
			return 1
		}
		specs = append(specs, spec)
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "updatectl: read trace: %v\n", err)
		return 1
	}
	var ids []int64
	if batchSize <= 1 {
		for _, spec := range specs {
			id, err := client.Submit(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "updatectl: submit: %v\n", err)
				return 1
			}
			ids = append(ids, id)
		}
	} else {
		for len(specs) > 0 {
			n := batchSize
			if n > len(specs) {
				n = len(specs)
			}
			got, err := client.SubmitBatchRetry(specs[:n], 5)
			if err != nil {
				fmt.Fprintf(os.Stderr, "updatectl: submit-batch: %v\n", err)
				return 1
			}
			ids = append(ids, got...)
			specs = specs[n:]
		}
	}
	fmt.Fprintf(stdout, "submitted %d events\n", len(ids))
	for _, id := range ids {
		st, err := client.WaitDone(id, timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
			return 1
		}
		printStatus(stdout, st)
	}
	return 0
}

// walCmd inspects a WAL directory offline: info, verify or dump.
// `wal info -addr host:port` instead asks a live server for its fsync
// latency profile and sync policy.
func walCmd(args []string, stdout io.Writer) int {
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "updatectl: wal needs a subcommand and a directory: wal info|verify|dump <dir> (or wal info -addr host:port)")
		return 2
	}
	sub, dir := args[0], args[1]
	if sub == "info" && dir == "-addr" {
		if len(args) < 3 {
			fmt.Fprintln(os.Stderr, "updatectl: wal info -addr needs a controller address")
			return 2
		}
		return walInfoLive(args[2], stdout)
	}
	log, err := wal.Open(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updatectl: wal: %v\n", err)
		return 1
	}
	switch sub {
	case "info":
		if m := log.Meta(); m != nil {
			fmt.Fprintf(stdout, "meta        format %d, scheduler %s, seed %d, k=%d, util %.3f, watermark %d, tables %d\n",
				m.Format, m.Scheduler, m.Seed, m.K, m.Util, m.Watermark, m.Tables)
			if m.Shard > 0 {
				fmt.Fprintf(stdout, "shard       %d of %d (log bound to this engine slot)\n", m.Shard, m.Shards)
			}
		} else {
			fmt.Fprintln(stdout, "meta        (none: empty log)")
		}
		if ck := log.Checkpoint(); ck != nil {
			fmt.Fprintf(stdout, "checkpoint  seq %d, vt %v, rounds %d, state %d bytes\n",
				ck.ID.Seq, time.Duration(ck.ID.VT), ck.Rounds, len(ck.State))
		} else {
			fmt.Fprintln(stdout, "checkpoint  (none)")
		}
		for _, seg := range log.Segments() {
			torn := ""
			if seg.Truncated {
				torn = " (torn tail)"
			}
			fmt.Fprintf(stdout, "segment     %s: base %d, %d records, last seq %d%s\n",
				seg.Path, seg.Base, seg.Records, seg.LastSeq, torn)
		}
		fmt.Fprintf(stdout, "last seq    %d\n", log.LastSeq())
		return 0

	case "verify":
		var events, faults int
		info, err := log.Replay(0, func(rec *wal.Record) error {
			switch rec.Type {
			case wal.TypeEvent:
				events++
			case wal.TypeFault:
				faults++
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: wal verify: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "ok: %d records (%d events, %d faults), last seq %d\n",
			info.Records, events, faults, info.LastSeq)
		if info.Truncated {
			fmt.Fprintln(stdout, "note: torn tail truncated after last valid frame")
		}
		return 0

	case "dump":
		after := int64(0)
		if ck := log.Checkpoint(); ck != nil {
			after = ck.ID.Seq
		}
		enc := json.NewEncoder(stdout)
		if _, err := log.Replay(after, func(rec *wal.Record) error {
			return enc.Encode(rec)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "updatectl: wal dump: %v\n", err)
			return 1
		}
		return 0

	default:
		fmt.Fprintf(os.Stderr, "updatectl: unknown wal subcommand %q (want info, verify or dump)\n", sub)
		return 2
	}
}

// walInfoLive prints a running server's durability profile: sync policy,
// append/checkpoint counters and the fsync latency histogram from Stats.
func walInfoLive(addr string, stdout io.Writer) int {
	client, err := ctl.DialBinary(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
		return 1
	}
	defer client.Close()
	stats, err := client.Stats()
	if err != nil {
		fmt.Fprintf(os.Stderr, "updatectl: %v\n", err)
		return 1
	}
	if !stats.WALEnabled {
		fmt.Fprintln(stdout, "wal disabled on this server")
		return 0
	}
	fmt.Fprintf(stdout, "wal         seq %d, %d appends, %d checkpoints (covered seq %d)\n",
		stats.WALLastSeq, stats.WALAppends, stats.WALCheckpoints, stats.WALCheckpointSeq)
	fmt.Fprintf(stdout, "sync policy %s\n", stats.WALSyncPolicy)
	if stats.WALFsyncCount > 0 {
		fmt.Fprintf(stdout, "fsync       %d syncs, p50 %v, p99 %v\n",
			stats.WALFsyncCount, time.Duration(stats.WALFsyncP50Ns), time.Duration(stats.WALFsyncP99Ns))
	} else {
		fmt.Fprintln(stdout, "fsync       no syncs observed yet")
	}
	return 0
}

func printStatus(w io.Writer, st ctl.EventStatus) {
	switch st.State {
	case ctl.StateDone:
		fmt.Fprintf(w, "event %-4d done   %d/%d flows admitted, cost %.1f Mbps, delay %v, ECT %v\n",
			st.EventID, st.Admitted, st.Admitted+st.Failed,
			float64(st.CostBps)/1e6, st.QueuingDelay, st.ECT)
	default:
		fmt.Fprintf(w, "event %-4d %s (%d flows)\n", st.EventID, st.State, st.Flows)
	}
}
