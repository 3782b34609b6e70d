package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/recall"
	"github.com/voxset/voxset/internal/server"
	"github.com/voxset/voxset/internal/snapshot"
	"github.com/voxset/voxset/internal/vsdb"
	"github.com/voxset/voxset/internal/wal"
)

// The live-catalog workload: one client sends a mixed JSON stream of
// exact and approximate k-nn, ε-range, insert and delete requests to a
// cluster restarted from a checkpoint plus a WAL tail.

type liveRun struct {
	dir  string // generated inputs (read only)
	work string // scratch space for restart copies
	man  liveManifest
	ops  []liveOp
	sz   size
	tr   *Tracer
	// copies numbers the restart copies made so far.
	copies int
}

func liveServerConfig(c *cluster.DB) server.Config {
	return server.Config{Cluster: c, Workers: serverSlots}
}

// fresh copies the generated snapshot and WAL directories, so a restart
// never changes the inputs, and returns the copy's root.
func (r *liveRun) fresh() (string, error) {
	r.copies++
	dst := filepath.Join(r.work, fmt.Sprintf("restart-%d", r.copies))
	for _, sub := range []string{"snap", "wal"} {
		if err := copyDir(filepath.Join(r.dir, sub), filepath.Join(dst, sub)); err != nil {
			return "", err
		}
	}
	return dst, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// restart is the timed set-up: cluster.LoadDir on a fresh copy (snapshot
// load plus WAL replay), one approximate query so the sketch tables are
// built, then a server answering /healthz.
func (r *liveRun) restart(tr *Tracer) (*cluster.DB, *instance, string, time.Duration, error) {
	root, err := r.fresh()
	if err != nil {
		return nil, nil, "", 0, err
	}
	t := time.Now()
	c, err := cluster.LoadDir(filepath.Join(root, "snap"), liveConfig(filepath.Join(root, "wal"), false))
	if err != nil {
		return nil, nil, "", 0, err
	}
	if _, err := c.KNNApprox(r.man.Acked[0].warmSet(), knnK); err != nil {
		c.Close()
		return nil, nil, "", 0, err
	}
	in, err := startServer(liveServerConfig(c), tr)
	if err != nil {
		c.Close()
		return nil, nil, "", 0, err
	}
	return c, in, filepath.Join(root, "wal"), time.Since(t), nil
}

// warmSet is a query set for the warm-up approximate query.
func (a ackedObject) warmSet() [][]float64 {
	if a.Set != nil {
		return a.Set
	}
	return [][]float64{make([]float64, coverDim)}
}

// checkAcked counts acked tail writes the restarted cluster lost: every
// insert must read back with its exact set, every delete must be gone,
// and the object count must match.
func (r *liveRun) checkAcked(c *cluster.DB) int {
	bad := 0
	for _, a := range r.man.Acked {
		if !reflect.DeepEqual(c.Get(a.ID), a.Set) {
			bad++
		}
	}
	if c.Len() != r.man.Objects {
		bad++
	}
	return bad
}

func (r *liveRun) send(in *instance, j int, req, span int64) sample {
	op := r.ops[j]
	return in.post(op.path(), op.Body, req, span)
}

// timed is the untraced run: sz.setups restarts (the last one serves),
// then one closed-loop client for the timed phase.
func (r *liveRun) timed(seconds int, rep *report) error {
	var setups []float64
	var c *cluster.DB
	var in *instance
	for i := range r.sz.setups {
		var d time.Duration
		var err error
		if c, in, _, d, err = r.restart(nil); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		rep.setupFailures += r.checkAcked(c)
		if i < r.sz.setups-1 {
			if err := in.stop(); err != nil {
				return err
			}
			c.Close()
		}
	}
	defer c.Close()
	initial := captureState(c)
	if err := resetPeakRSS(); err != nil {
		return err
	}
	n := r.sz.measured[wIndex(wLive)]
	ph := closedLoop(1, time.Duration(seconds)*time.Second, n, len(r.ops),
		func(_, j int) sample { return r.send(in, j, 0, 0) })
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if err := in.stop(); err != nil {
		return err
	}
	failed, rec, err := r.oracle(initial, ph.samples)
	if err != nil {
		return err
	}
	rep.attempted, rep.failed = len(ph.samples), failed
	kind := func(k string) func(j int) bool { return func(j int) bool { return r.ops[j].Op == k } }
	rep.setE2E(setups, ph, n, kind("knn"), rss)
	rep.info["recall_at_10"] = rec
	m := ph.prefix(n)
	rep.info["range_p50_ms"] = percentile(m.latencies(kind("range")), 50)
	rep.info["knn_approx_p50_ms"] = percentile(m.latencies(kind("knn_approx")), 50)
	rep.info["write_p50_ms"] = percentile(m.latencies(func(j int) bool { return r.ops[j].write() }), 50)
	return nil
}

// state is a cluster's objects, for seeding the shadow database.
type state struct {
	ids  []uint64
	sets [][][]float64
}

func captureState(c *cluster.DB) state {
	var s state
	s.ids = c.IDs()
	for _, id := range s.ids {
		s.sets = append(s.sets, c.Get(id))
	}
	return s
}

// oracle replays the executed op stream against a shadow single
// vsdb.DB seeded with the served state: every write must have
// succeeded, every exact k-nn and range answer must equal the shadow's
// byte for byte, and every approximate answer must be sorted exact
// distances no smaller, rank by rank, than the exact answer's. It
// returns the failures and the mean recall@k of the approximate answers
// against the shadow's exact k-nn.
func (r *liveRun) oracle(initial state, samples []sample) (failed int, meanRecall float64, err error) {
	shadow, err := vsdb.Open(vsdb.Config{Dim: coverDim, MaxCard: maxCard, Workers: workerThreads})
	if err != nil {
		return 0, 0, err
	}
	if err := shadow.BulkInsert(initial.ids, initial.sets); err != nil {
		return 0, 0, err
	}
	var recalls []float64
	for _, s := range samples {
		op := r.ops[s.j]
		if s.failed() {
			failed++
		}
		if op.write() {
			var m server.MutateRequest
			if err := json.Unmarshal(op.Body, &m); err != nil {
				return 0, 0, err
			}
			if op.Op == "insert" {
				err = shadow.Insert(m.ID, m.Set)
			} else {
				err = shadow.Delete(m.ID)
			}
			if err != nil {
				return 0, 0, fmt.Errorf("shadow replay of op %d: %w", s.j, err)
			}
			continue
		}
		if s.failed() {
			continue
		}
		var q server.QueryRequest
		if err := json.Unmarshal(op.Body, &q); err != nil {
			return 0, 0, err
		}
		var got struct {
			Neighbors json.RawMessage `json:"neighbors"`
		}
		if json.Unmarshal(s.body, &got) != nil {
			failed++
			continue
		}
		switch op.Op {
		case "knn", "range":
			var want []vsdb.Neighbor
			if op.Op == "knn" {
				want = shadow.KNN(q.Set, q.K)
			} else {
				want = shadow.Range(q.Set, q.Eps)
			}
			if !bytes.Equal(got.Neighbors, encodeNeighbors(want)) {
				failed++
			}
		case "knn_approx":
			var approx []vsdb.Neighbor
			exact := shadow.KNN(q.Set, q.K)
			if json.Unmarshal(got.Neighbors, &approx) != nil || !approxSound(approx, exact) {
				failed++
				continue
			}
			recalls = append(recalls, recall.RecallAtK(approx, exact))
		}
	}
	return failed, mean(recalls), nil
}

// approxSound checks the approximate tier's contract against the exact
// answer: as many results, and each rank's distance no smaller than
// the exact one (exact distances over a subset of candidates).
func approxSound(approx, exact []vsdb.Neighbor) bool {
	if len(approx) != len(exact) {
		return false
	}
	for i := range approx {
		if approx[i].Dist < exact[i].Dist || (i > 0 && approx[i].Dist < approx[i-1].Dist) {
			return false
		}
	}
	return true
}

func encodeNeighbors(nbs []vsdb.Neighbor) []byte {
	out := make([]server.Neighbor, len(nbs))
	for i, nb := range nbs {
		out[i] = server.Neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	b, _ := json.Marshal(out) // cannot fail: ids and finite floats
	return b
}

// traced is the traced run: the restart's layers timed on a copy
// (vsdb.LoadFile per shard snapshot, then AttachWAL of its log), then
// the first sz.traceN ops sent one at a time twice — untraced for the
// baseline, then traced — each from its own fresh restart so both
// start from the same state.
func (r *liveRun) traced(rep *report) error {
	if err := r.traceRestart(); err != nil {
		return err
	}
	n := min(r.sz.traceN(wLive), len(r.ops))

	c, in, _, _, err := r.restart(nil)
	if err != nil {
		return err
	}
	initial := captureState(c)
	base, gc := sequential(n, func(j int) sample { return r.send(in, j, 0, 0) })
	if err := in.stop(); err != nil {
		return err
	}
	c.Close()
	f1, _, err := r.oracle(initial, base)
	if err != nil {
		return err
	}

	c, in, walDir, _, err := r.restart(r.tr)
	if err != nil {
		return err
	}
	defer c.Close()
	traced := make([]sample, n)
	for j := range n {
		req := int64(j + 1)
		root := r.tr.Begin(req, 0, "request")
		traced[j], err = r.traceOp(c, in, walDir, req, root, j)
		traced[j].j = j
		r.tr.End(root)
		if err != nil {
			return err
		}
	}
	if err := in.stop(); err != nil {
		return err
	}
	f2, _, err := r.oracle(initial, traced)
	if err != nil {
		return err
	}
	rep.attempted, rep.failed = 2*n, f1+f2
	reads := func(ss []sample) []sample {
		var out []sample
		for _, s := range ss {
			if !r.ops[s.j].write() {
				out = append(out, s)
			}
		}
		return out
	}
	rep.setLayers(r.tr.Spans(), reads(base), reads(traced), gc)
	return nil
}

// traceOp runs op j traced. A read goes through HTTP (server.client and
// server.handler spans) and its search is then replayed against the
// cluster and each shard. A write is one vsdb.write span around the
// cluster call, with the compactions it triggered and the WAL bytes it
// appended; it is not also sent over HTTP, which would apply it twice.
// The sample of a write records the direct call's outcome.
func (r *liveRun) traceOp(c *cluster.DB, in *instance, walDir string, req, root int64, j int) (sample, error) {
	op := r.ops[j]
	if op.write() {
		var m server.MutateRequest
		if err := json.Unmarshal(op.Body, &m); err != nil {
			return sample{}, err
		}
		c0, w0 := c.Compactions(), walBytes(walDir, c.N())
		id := r.tr.Begin(req, root, "vsdb.write")
		t := time.Now()
		var err error
		if op.Op == "insert" {
			err = c.Insert(m.ID, m.Set)
		} else {
			err = c.Delete(m.ID)
		}
		d := time.Since(t)
		r.tr.End(id)
		r.tr.Count(id, map[string]float64{
			"compactions": float64(c.Compactions() - c0),
			"wal_bytes":   walBytes(walDir, c.N()) - w0,
		})
		s := sample{ms: ms(d), status: 200, err: err}
		return s, nil
	}
	cl := r.tr.Begin(req, root, "server.client")
	s := r.send(in, j, req, cl)
	r.tr.End(cl)
	var got struct {
		Cached bool `json:"cached"`
	}
	json.Unmarshal(s.body, &got) // a bad body fails the oracle later
	r.tr.Count(cl, map[string]float64{"cached": b2f(got.Cached)})
	var q server.QueryRequest
	if err := json.Unmarshal(op.Body, &q); err != nil {
		return s, err
	}
	_, err := traceSearch(r.tr, req, root, c, query{kind: op.Op, set: q.Set, k: q.K, eps: q.Eps})
	return s, err
}

// traceRestart times the two halves of a restart on a fresh copy, shard
// by shard: snapshot.load around vsdb.LoadFile of the shard's snapshot
// file, wal.replay around AttachWAL of its log.
func (r *liveRun) traceRestart() error {
	dst, err := r.fresh()
	if err != nil {
		return err
	}
	cfg := liveConfig("", false)
	root := r.tr.Begin(0, 0, "setup")
	defer r.tr.End(root)
	for i := range cfg.Shards {
		id := r.tr.Begin(0, root, "snapshot.load")
		db, err := vsdb.LoadFile(filepath.Join(dst, "snap", snapshot.ShardSnapshotName(i)), vsdb.LoadOptions{Workers: cfg.Workers, MaxDelta: cfg.MaxDelta, Approx: cfg.Approx})
		r.tr.End(id)
		if err != nil {
			return err
		}
		id = r.tr.Begin(0, root, "wal.replay")
		err = db.AttachWAL(filepath.Join(dst, "wal", wal.ShardLogName(i)), vsdb.WALOptions{})
		r.tr.End(id)
		db.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
