package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/meshquery"
	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/server"
)

// The upload and scan-partial workloads: POST /query/mesh against a
// catalog ingested from STL files.

// extractConfig is the extraction both the server and the benchmark's
// ingest and oracle use: the server's defaults (r' = 15, k = MaxCard).
var extractConfig = meshquery.Config{RCover: meshquery.DefaultConfig().RCover, Covers: maxCard, Workers: 1}

// meshClients is the number of closed-loop clients on upload and
// scan-partial, one per CPU the benchmark is sized for.
const meshClients = 2

func meshServerConfig(c *cluster.DB) server.Config {
	return server.Config{Cluster: c, Workers: serverSlots, MeshExtract: extractConfig}
}

// meshRun is one upload or scan-partial run over generated inputs.
type meshRun struct {
	w   string
	dir string
	man meshManifest
	sz  size
	tr  *Tracer
}

func (r *meshRun) query(set [][]float64) query {
	if r.w == wScanPartial {
		return query{kind: "partial", set: set, k: knnK}
	}
	return query{kind: "knn", set: set, k: knnK}
}

func (r *meshRun) path() string {
	if r.w == wScanPartial {
		return fmt.Sprintf("/query/mesh?k=%d&dist=partial", knnK)
	}
	return fmt.Sprintf("/query/mesh?k=%d", knnK)
}

// setup is the timed set-up: every catalog STL is read, parsed and
// extracted on two workers, bulk-inserted into a fresh 2-shard cluster,
// and served until /healthz answers.
func (r *meshRun) setup() (*cluster.DB, *instance, time.Duration, error) {
	t := time.Now()
	root := r.tr.Begin(0, 0, "setup")
	defer r.tr.End(root)
	ids := r.man.Catalog
	sets := make([][][]float64, len(ids))
	errs := make([]error, len(ids))
	parallel.ForEach(len(ids), workerThreads, func(i int) {
		b, err := os.ReadFile(catalogPath(r.dir, ids[i]))
		if err != nil {
			errs[i] = err
			return
		}
		id := r.tr.Begin(0, root, "ingest.extract")
		m, err := mesh.ReadSTL(bytes.NewReader(b))
		if err == nil {
			var res meshquery.Result
			res, err = meshquery.Extract(m, extractConfig)
			sets[i] = res.Set
		}
		r.tr.End(id)
		errs[i] = err
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, 0, fmt.Errorf("ingesting catalog part %d: %w", ids[i], err)
		}
	}
	c, err := cluster.New(cluster.Config{Shards: 2, Dim: coverDim, MaxCard: maxCard, Workers: 1})
	if err != nil {
		return nil, nil, 0, err
	}
	id := r.tr.Begin(0, root, "ingest.bulk_insert")
	err = c.BulkInsert(ids, sets)
	r.tr.End(id)
	if err != nil {
		return nil, nil, 0, err
	}
	in, err := startServer(meshServerConfig(c), nil)
	if err != nil {
		return nil, nil, 0, err
	}
	return c, in, time.Since(t), nil
}

// send posts script position j, reading its body into buf (untimed).
func (r *meshRun) send(in *instance, buf *[]byte, j int, req, span int64) sample {
	b, err := readInto(buf, bodyPath(r.dir, r.man.Script[j]))
	if err != nil {
		return sample{err: err}
	}
	return in.post(r.path(), b, req, span)
}

// meshResponse is the part of a /query/mesh answer the oracle checks.
type meshResponse struct {
	Neighbors json.RawMessage `json:"neighbors"`
	Set       json.RawMessage `json:"set"`
	Cached    bool            `json:"cached"`
}

// expected is the offline answer for one body: its extracted set and
// neighbors encoded exactly as the server encodes them.
type expected struct {
	set, neighbors []byte
	ids            []uint64
	err            error
}

// oracle computes, for every distinct body the samples used, the answer
// offline — meshquery.Extract on the same bytes, then the same cluster
// call — and counts the samples whose answer differs in any byte, or
// that failed outright. It returns the failures and the fraction of
// distinct scans whose true part is in the top k.
func (r *meshRun) oracle(c *cluster.DB, samples []sample) (failed int, partRecall float64) {
	idx := map[int]int{} // body → index into bodies
	var bodies []int
	for _, s := range samples {
		b := r.man.Script[s.j]
		if _, ok := idx[b]; !ok {
			idx[b] = len(bodies)
			bodies = append(bodies, b)
		}
	}
	want := make([]expected, len(bodies))
	parallel.ForEach(len(bodies), workerThreads, func(i int) { want[i] = r.expect(c, bodies[i]) })
	hit := map[int]bool{}
	for _, s := range samples {
		b := r.man.Script[s.j]
		e := want[idx[b]]
		var got meshResponse
		if s.failed() || e.err != nil || json.Unmarshal(s.body, &got) != nil ||
			!bytes.Equal(got.Set, e.set) || !bytes.Equal(got.Neighbors, e.neighbors) {
			failed++
			continue
		}
		for _, id := range e.ids {
			if id == r.man.Bodies[b] {
				hit[b] = true
			}
		}
	}
	return failed, float64(len(hit)) / float64(len(bodies))
}

func (r *meshRun) expect(c *cluster.DB, b int) expected {
	raw, err := os.ReadFile(bodyPath(r.dir, b))
	if err != nil {
		return expected{err: err}
	}
	m, err := mesh.ReadSTL(bytes.NewReader(raw))
	if err != nil {
		return expected{err: err}
	}
	ex, err := meshquery.Extract(m, extractConfig)
	if err != nil {
		return expected{err: err}
	}
	res, err := r.query(ex.Set).search(c)
	if err != nil {
		return expected{err: err}
	}
	e := expected{neighbors: encodeNeighbors(res.Neighbors)}
	for _, nb := range res.Neighbors {
		e.ids = append(e.ids, nb.ID)
	}
	e.set, e.err = json.Marshal(ex.Set)
	return e
}

// timed is the untraced run: set up sz.setups times (the last one
// serves), then two closed-loop clients for the timed phase.
func (r *meshRun) timed(seconds int, rep *report) error {
	var setups []float64
	var c *cluster.DB
	var in *instance
	for i := range r.sz.setups {
		var d time.Duration
		var err error
		if c, in, d, err = r.setup(); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < r.sz.setups-1 {
			if err := in.stop(); err != nil {
				return err
			}
			c.Close()
		}
	}
	defer c.Close()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	bufs := make([][]byte, meshClients)
	n := r.sz.measured[wIndex(r.w)]
	ph := closedLoop(meshClients, time.Duration(seconds)*time.Second, n, len(r.man.Script),
		func(c, j int) sample { return r.send(in, &bufs[c], j, 0, 0) })
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if err := in.stop(); err != nil {
		return err
	}
	failed, recall := r.oracle(c, ph.samples)
	rep.attempted, rep.failed = len(ph.samples), failed
	rep.setE2E(setups, ph, n, nil, rss)
	rep.info["part_recall_at_10"] = recall
	rep.info["cache_hits"] = float64(cachedCount(ph.samples))
	return nil
}

func cachedCount(samples []sample) int {
	n := 0
	for _, s := range samples {
		var got meshResponse
		if json.Unmarshal(s.body, &got) == nil && got.Cached {
			n++
		}
	}
	return n
}

// traced is the traced run: one traced set-up, then the first
// sz.traceN(w) script positions sent one at a time twice — untraced for
// the baseline, then traced, each against a fresh server (empty cache)
// on the same cluster.
func (r *meshRun) traced(rep *report) error {
	c, in, _, err := r.setup()
	if err != nil {
		return err
	}
	defer c.Close()
	if err := in.stop(); err != nil {
		return err
	}
	n := min(r.sz.traceN(r.w), len(r.man.Script))
	var buf []byte
	if in, err = startServer(meshServerConfig(c), nil); err != nil {
		return err
	}
	base, gc := sequential(n, func(j int) sample { return r.send(in, &buf, j, 0, 0) })
	if err := in.stop(); err != nil {
		return err
	}
	in, err = startServer(meshServerConfig(c), r.tr)
	if err != nil {
		return err
	}
	var traced []sample
	for j := range n {
		req := int64(j + 1)
		root := r.tr.Begin(req, 0, "request")
		cl := r.tr.Begin(req, root, "server.client")
		s := r.send(in, &buf, j, req, cl)
		r.tr.End(cl)
		s.j = j
		traced = append(traced, s)
		var got meshResponse
		cached := json.Unmarshal(s.body, &got) == nil && got.Cached
		r.tr.Count(cl, map[string]float64{"cached": b2f(cached)})
		if err := r.replay(c, &buf, req, root, j, cached); err != nil {
			return err
		}
		r.tr.End(root)
	}
	if err := in.stop(); err != nil {
		return err
	}
	f1, _ := r.oracle(c, base)
	f2, _ := r.oracle(c, traced)
	rep.attempted, rep.failed = 2*n, f1+f2
	rep.setLayers(r.tr.Spans(), base, traced, gc)
	return nil
}

// replay re-runs the layers behind script position j in pipeline order,
// one span per layer call: parse, voxelize, extract, and — unless the
// server answered from its cache — the search.
func (r *meshRun) replay(c *cluster.DB, buf *[]byte, req, root int64, j int, cached bool) error {
	b, err := readInto(buf, bodyPath(r.dir, r.man.Script[j]))
	if err != nil {
		return err
	}
	id := r.tr.Begin(req, root, "mesh.parse")
	m, err := mesh.ReadSTL(bytes.NewReader(b))
	r.tr.End(id)
	if err != nil {
		return err
	}
	r.tr.Count(id, map[string]float64{"triangles": float64(len(m.Triangles))})
	id = r.tr.Begin(req, root, "voxel.voxelize")
	g, err := meshquery.Voxelize(m, extractConfig)
	r.tr.End(id)
	if err != nil {
		return err
	}
	r.tr.Count(id, map[string]float64{"voxels": float64(g.Count())})
	id = r.tr.Begin(req, root, "cover.extract")
	set := meshquery.CoverSet(g, extractConfig.Covers)
	r.tr.End(id)
	if cached {
		return nil
	}
	_, err = traceSearch(r.tr, req, root, c, r.query(set))
	return err
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
