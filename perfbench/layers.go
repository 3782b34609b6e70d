package main

import (
	"math"
	"os"
	"path/filepath"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/wal"
)

// query is one search as the server would run it against the cluster.
type query struct {
	kind string // knn, knn_approx, range or partial
	set  [][]float64
	k    int
	eps  float64
}

var partialQuery = vsdb.SetQuery{Partial: true}

// search runs q through the cluster's public query entry point.
func (q query) search(c *cluster.DB) (cluster.Result, error) {
	switch q.kind {
	case "knn_approx":
		return c.KNNApprox(q.set, q.k)
	case "range":
		return c.Range(q.set, q.eps)
	case "partial":
		return c.KNNSet(q.set, q.k, partialQuery)
	}
	return c.KNN(q.set, q.k)
}

// shardSearch runs q against one shard's database directly.
func (q query) shardSearch(db *vsdb.DB) []vsdb.Neighbor {
	switch q.kind {
	case "knn_approx":
		return db.KNNApprox(q.set, q.k)
	case "range":
		return db.Range(q.set, q.eps)
	case "partial":
		return db.KNNSet(q.set, q.k, partialQuery)
	}
	return db.KNN(q.set, q.k)
}

// traceSearch records the search stage of one traced request under root:
// a cluster.search span (sketch.approx for approximate k-nn) around the
// scatter-gather call, then one vsdb.shard_search span per shard around
// the same query sent to that shard alone. Refinement and sketch
// candidate counts are the deltas of the cumulative counters, which is
// exact because traced requests run one at a time.
func traceSearch(tr *Tracer, req, root int64, c *cluster.DB, q query) (cluster.Result, error) {
	name := "cluster.search"
	if q.kind == "knn_approx" {
		name = "sketch.approx"
	}
	r0, s0 := c.Refinements(), c.SketchCandidates()
	id := tr.Begin(req, root, name)
	res, err := q.search(c)
	tr.End(id)
	if err != nil {
		return res, err
	}
	tr.Count(id, map[string]float64{
		"refinements": float64(c.Refinements() - r0),
		"candidates":  float64(c.SketchCandidates() - s0),
		"results":     float64(len(res.Neighbors)),
	})
	for i := range c.N() {
		db := c.Shard(i)
		r0 := db.Refinements()
		id := tr.Begin(req, root, "vsdb.shard_search")
		q.shardSearch(db)
		tr.End(id)
		tr.Count(id, map[string]float64{"refinements": float64(db.Refinements() - r0)})
	}
	return res, nil
}

// walBytes is the summed size of the cluster's shard logs in walDir.
func walBytes(walDir string, shards int) float64 {
	var n int64
	for i := range shards {
		if fi, err := os.Stat(filepath.Join(walDir, wal.ShardLogName(i))); err == nil {
			n += fi.Size()
		}
	}
	return float64(n)
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"mesh.parse_ms", "ms"},
	{"voxel.voxelize_ms", "ms"},
	{"cover.extract_ms", "ms"},
	{"mesh.triangles_per_upload", "count"},
	{"voxel.voxels_per_upload", "count"},
	{"ingest.extract_ms_per_object", "ms"},
	{"ingest.bulk_insert_ms", "ms"},
	{"cluster.search_ms", "ms"},
	{"vsdb.shard_search_ms", "ms"},
	{"cluster.merge_ms", "ms"},
	{"filter.refinements_per_query", "count"},
	{"filter.refinements_per_result", "count"},
	{"dist.refine_us_per_pair", "us"},
	{"sketch.approx_ms", "ms"},
	{"sketch.candidates_per_query", "count"},
	{"vsdb.write_ms", "ms"},
	{"vsdb.compactions_per_1k_writes", "count"},
	{"wal.bytes_per_write", "B"},
	{"snapshot.load_ms", "ms"},
	{"wal.replay_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// layerValues derives the per-layer metrics from a traced run's spans.
// A layer the workload never called reports 0. runtime.gc_pause_ms and
// trace.overhead_ms come from the untraced baseline and are set by the
// caller.
func layerValues(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	selfMS := map[string][]float64{}
	sum := map[string]map[string]float64{} // span name → count name → total
	calls := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		selfMS[s.Name] = append(selfMS[s.Name], ms(self[s.ID]))
		calls[s.Name]++
		if sum[s.Name] == nil {
			sum[s.Name] = map[string]float64{}
		}
		for k, v := range s.Counts {
			sum[s.Name][k] += v
		}
	}
	// Per request: the cluster-level search and its slowest shard.
	type reqSearch struct{ search, slowest float64 }
	perReq := map[int64]*reqSearch{}
	var shardMS, shardRefs float64
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "cluster.search", "sketch.approx":
			perReq[s.Req] = &reqSearch{search: ms(s.dur())}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != "vsdb.shard_search" {
			continue
		}
		shardMS += ms(s.dur())
		shardRefs += s.Counts["refinements"]
		if r := perReq[s.Req]; r != nil {
			r.slowest = math.Max(r.slowest, ms(s.dur()))
		}
	}
	var searches, slowest, merge []float64
	for _, r := range perReq {
		searches = append(searches, r.search)
		slowest = append(slowest, r.slowest)
		merge = append(merge, r.search-r.slowest)
	}
	// Transport is the client span's self time: client latency minus the
	// handler span nested in it.
	var transport []float64
	for i := range spans {
		if spans[i].Name == "server.client" {
			transport = append(transport, ms(self[spans[i].ID]))
		}
	}
	searchCalls := calls["cluster.search"] + calls["sketch.approx"]
	refs := sum["cluster.search"]["refinements"] + sum["sketch.approx"]["refinements"]
	results := sum["cluster.search"]["results"] + sum["sketch.approx"]["results"]
	writes := calls["vsdb.write"]
	med := func(name string) float64 { return median(selfMS[name]) }
	return zeroNaN(map[string]float64{
		"mesh.parse_ms":                  med("mesh.parse"),
		"voxel.voxelize_ms":              med("voxel.voxelize"),
		"cover.extract_ms":               med("cover.extract"),
		"mesh.triangles_per_upload":      sum["mesh.parse"]["triangles"] / calls["mesh.parse"],
		"voxel.voxels_per_upload":        sum["voxel.voxelize"]["voxels"] / calls["voxel.voxelize"],
		"ingest.extract_ms_per_object":   med("ingest.extract"),
		"ingest.bulk_insert_ms":          med("ingest.bulk_insert"),
		"cluster.search_ms":              median(searches),
		"vsdb.shard_search_ms":           median(slowest),
		"cluster.merge_ms":               median(merge),
		"filter.refinements_per_query":   refs / searchCalls,
		"filter.refinements_per_result":  refs / results,
		"dist.refine_us_per_pair":        1000 * shardMS / shardRefs,
		"sketch.approx_ms":               med("sketch.approx"),
		"sketch.candidates_per_query":    sum["sketch.approx"]["candidates"] / calls["sketch.approx"],
		"vsdb.write_ms":                  med("vsdb.write"),
		"vsdb.compactions_per_1k_writes": 1000 * sum["vsdb.write"]["compactions"] / writes,
		"wal.bytes_per_write":            sum["vsdb.write"]["wal_bytes"] / writes,
		"snapshot.load_ms":               med("snapshot.load"),
		"wal.replay_ms":                  med("wal.replay"),
		"server.handler_ms":              med("server.handler"),
		"server.transport_ms":            median(transport),
		"server.cache_hit_ratio":         sum["server.client"]["cached"] / calls["server.client"],
	})
}

// zeroNaN maps the NaN and ±Inf of a layer that never ran (0/0, the
// median of nothing) to 0.
func zeroNaN(m map[string]float64) map[string]float64 {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
		}
	}
	return m
}
