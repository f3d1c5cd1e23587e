package analyze

import (
	"sort"
	"strconv"

	"repro/internal/obs"
)

// ShardingReport summarizes per-shard arbiter activity under per-shard
// granting (docs/scheduler.md). It is present only when the run
// exported the clock_shard_busy_ns gauges — i.e. the runtime actually
// granted per shard; unsharded runs (and Chrome-trace inputs, which carry
// no metrics) omit the section entirely so their reports are unchanged.
type ShardingReport struct {
	Shards []ShardLane `json:"shards"`
	// GlobalEdgeBusyNS is arbiter time spent inside cross-shard
	// (global-scope) grants: barrier rendezvous and every other edge that
	// folds the shard clocks through the merge rule.
	GlobalEdgeBusyNS int64 `json:"global_edge_busy_ns"`
	// GrantParallelismX is (Σ per-shard busy + global-edge busy) / wall:
	// the effective number of concurrently active grant loops. A single
	// global arbiter pins this at ≤ 1.0; values above 1.0 are ordering
	// work the shards retired in parallel.
	GrantParallelismX float64 `json:"grant_parallelism_x"`
}

// ShardLane is one arbitration shard's activity.
type ShardLane struct {
	Shard int `json:"shard"`
	// BusyNS is the time this shard's grant loop had an op in flight.
	BusyNS int64 `json:"busy_ns"`
	// FrontierNS is the shard's logical clock at the end of the run — how
	// far its domain advanced independently of the others.
	FrontierNS int64 `json:"frontier_ns"`
	// UtilizationPct is BusyNS as a share of wall time.
	UtilizationPct float64 `json:"utilization_pct"`
}

// shardLabel extracts the integer "shard" label from a metric sample.
func shardLabel(labels []obs.Label) (int, bool) {
	for _, l := range labels {
		if l.Key == "shard" {
			n, err := strconv.Atoi(l.Value)
			return n, err == nil
		}
	}
	return 0, false
}

// shardingReport assembles Report.Sharding from the runtime's clock-shard
// gauges. Leaves r.Sharding nil when no per-shard busy samples exist.
func shardingReport(metrics []obs.Sample, r *Report) {
	busy := map[int]int64{}
	frontier := map[int]int64{}
	var globalBusy int64
	for _, s := range metrics {
		switch s.Name {
		case "clock_shard_busy_ns":
			if sh, ok := shardLabel(s.Labels); ok {
				busy[sh] = s.Value
			}
		case "clock_shard_frontier_ns":
			if sh, ok := shardLabel(s.Labels); ok {
				frontier[sh] = s.Value
			}
		case "clock_global_edge_busy_ns":
			globalBusy = s.Value
		}
	}
	if len(busy) == 0 {
		return
	}

	sh := &ShardingReport{GlobalEdgeBusyNS: globalBusy}
	var total int64
	ids := make([]int, 0, len(busy))
	for id := range busy {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		total += busy[id]
		sh.Shards = append(sh.Shards, ShardLane{
			Shard:          id,
			BusyNS:         busy[id],
			FrontierNS:     frontier[id],
			UtilizationPct: pct(busy[id], r.WallNS),
		})
	}
	if r.WallNS > 0 {
		sh.GrantParallelismX = round2(float64(total+globalBusy) / float64(r.WallNS))
	}
	r.Sharding = sh
}
