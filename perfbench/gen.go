package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"github.com/voxset/voxset/internal/cadgen"
	"github.com/voxset/voxset/internal/cluster"
	"github.com/voxset/voxset/internal/degrade"
	"github.com/voxset/voxset/internal/mesh"
	"github.com/voxset/voxset/internal/meshquery"
	"github.com/voxset/voxset/internal/normalize"
	"github.com/voxset/voxset/internal/parallel"
	"github.com/voxset/voxset/internal/recall"
	"github.com/voxset/voxset/internal/server"
	"github.com/voxset/voxset/internal/voxel"
	"github.com/voxset/voxset/internal/vsdb"
)

// Input generation. Everything a workload sends or loads is written to a
// directory before anything is measured, as a pure function of the
// workload, the seed and the size: the same triple gives byte-identical
// files (inputsDigest pins that). Generation calls the repository's own
// cadgen, normalize, voxel.ToMesh, degrade, recall and cluster code, so a
// change to any of them that alters the inputs shows as a different
// digest.

// Generation constants shared by both sizes.
const (
	meshRes       = 30   // voxel resolution of catalog meshes and rescans
	coverDim      = 6    // cover feature dimensionality (§3.3)
	maxCard       = 7    // cover budget k: at most 7 vectors per set
	knnK          = 10   // k of every k-nn request
	uploadNoise   = 0.1  // severity of the mild rescan damage on upload
	cropSeverity  = 0.25 // severity of the crop on scan-partial
	uploadRepeat  = 4    // every 4th upload repeats an earlier body ...
	repeatBack    = 6    // ... the one 6 back: never itself a repeat, and done by then with 2 clients
	jitterSigma   = 0.4  // live-catalog jitter, in cover-grid voxel units
	liveCoverRes  = 15   // cover resolution of live-catalog base parts
	epsSample     = 64   // range queries sampled to choose ε
	workerThreads = 2    // generation fan-out
)

// meshManifest describes a generated upload or scan-partial input set.
type meshManifest struct {
	// Catalog lists the ids of catalog/<id>.stl in ingest order.
	Catalog []uint64 `json:"catalog"`
	// Bodies[i] is the catalog part queries/<i>.stl was scanned from.
	Bodies []uint64 `json:"bodies"`
	// Script is the request order: indices into Bodies.
	Script []int `json:"script"`
}

// liveManifest describes a generated live-catalog input set.
type liveManifest struct {
	Objects int     `json:"objects"` // live objects after the WAL tail
	Eps     float64 `json:"eps"`     // ε of every /range request
	// Acked is every object the WAL tail touched, with the state the
	// restart must show: Set nil means deleted.
	Acked []ackedObject `json:"acked"`
}

type ackedObject struct {
	ID  uint64      `json:"id"`
	Set [][]float64 `json:"set"`
}

// liveOp is one line of the live-catalog op script (ops.jsonl).
type liveOp struct {
	Op   string          `json:"op"` // knn, knn_approx, range, insert, delete
	Body json.RawMessage `json:"body"`
}

func (o liveOp) path() string {
	switch o.Op {
	case "knn", "knn_approx":
		return "/knn"
	}
	return "/" + o.Op
}

func (o liveOp) write() bool { return o.Op == "insert" || o.Op == "delete" }

// generate writes the inputs of workload w for seed into dir.
func generate(dir, w string, seed int64, sz size) error {
	switch w {
	case wUpload, wScanPartial:
		return genMesh(dir, w, seed, sz)
	case wLive:
		return genLive(dir, seed, sz)
	}
	return fmt.Errorf("unknown workload %q", w)
}

// genMesh writes an STL catalog of cadgen aircraft parts and one damaged
// rescan of each part: mild noise or dropout for upload, a crop for
// scan-partial. Parts that do not survive meshing, and scans the server
// could not extract, are left out, so no request is expected to fail.
func genMesh(dir, w string, seed int64, sz size) error {
	for _, sub := range []string{"catalog", "queries"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	parts := cadgen.AircraftDataset(seed, sz.catalogParts)
	okPart := make([]bool, len(parts))
	okScan := make([]bool, len(parts))
	errs := make([]error, len(parts))
	parallel.ForEach(len(parts), workerThreads, func(i int) {
		okPart[i], okScan[i], errs[i] = genPart(dir, w, seed, i, parts[i])
	})
	var m meshManifest
	for i := range parts {
		if errs[i] != nil {
			return errs[i]
		}
		if okPart[i] {
			m.Catalog = append(m.Catalog, uint64(i))
		}
		if okScan[i] {
			m.Bodies = append(m.Bodies, uint64(i))
		}
	}
	// Rename scans to a dense 0..n-1 numbering.
	for i, part := range m.Bodies {
		if err := os.Rename(filepath.Join(dir, "queries", fmt.Sprintf("p%05d.stl", part)), bodyPath(dir, i)); err != nil {
			return err
		}
	}
	if len(m.Bodies) == 0 {
		return fmt.Errorf("no scans survived generation")
	}
	rng := rand.New(rand.NewSource(seed))
	var perm []int
	for j := 0; j < sz.scriptLen; j++ {
		if w == wUpload && j%uploadRepeat == uploadRepeat-1 && j >= repeatBack {
			m.Script = append(m.Script, m.Script[j-repeatBack])
			continue
		}
		if len(perm) == 0 {
			perm = rng.Perm(len(m.Bodies))
		}
		m.Script = append(m.Script, perm[0])
		perm = perm[1:]
	}
	return writeJSON(filepath.Join(dir, "manifest.json"), &m)
}

func catalogPath(dir string, id uint64) string {
	return filepath.Join(dir, "catalog", fmt.Sprintf("%05d.stl", id))
}

func bodyPath(dir string, i int) string {
	return filepath.Join(dir, "queries", fmt.Sprintf("%05d.stl", i))
}

// genPart meshes catalog part i and writes it and its damaged scan.
func genPart(dir, w string, seed int64, i int, p cadgen.Part) (okPart, okScan bool, err error) {
	g, _ := normalize.VoxelizeNormalized(p.Solid, meshRes)
	if g.Empty() {
		return false, false, nil
	}
	m := voxel.ToMesh(g, p.Name)
	if err := writeSTL(catalogPath(dir, uint64(i)), m); err != nil {
		return false, false, err
	}
	dp := degrade.Params{Kind: degrade.Crop, Severity: cropSeverity, Seed: seed*1_000_003 + int64(i)}
	if w == wUpload {
		dp.Kind, dp.Severity = degrade.Noise, uploadNoise
		if i%2 == 1 {
			dp.Kind = degrade.Dropout
		}
	}
	scan, err := degrade.Mesh(m, meshRes, dp)
	if err != nil {
		return true, false, nil
	}
	if _, err := meshquery.Extract(scan, extractConfig); err != nil {
		return true, false, nil
	}
	return true, true, writeSTL(filepath.Join(dir, "queries", fmt.Sprintf("p%05d.stl", i)), scan)
}

func writeSTL(path string, m *mesh.Mesh) error {
	var buf bytes.Buffer
	if err := mesh.WriteSTL(&buf, m); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// liveMaxDelta is the live-catalog compaction threshold per shard. At
// the default (256) a run never compacts, and every exact query
// over-fetches past the tombstones and scans a delta that only grow,
// so throughput falls threefold from the first second to the last. At
// 64 the 3200 measured ops hold about 160 inserts per shard: two
// compactions each, well clear of a third, so every seed measures the
// same number.
const liveMaxDelta = 64

// liveConfig is the cluster configuration of the live-catalog workload:
// two shards, the default WAL fsync policy (sync per mutation) unless
// noSync, and the sketch tier with default parameters.
func liveConfig(walDir string, noSync bool) cluster.Config {
	return cluster.Config{
		Shards: 2, Dim: coverDim, MaxCard: maxCard, Workers: 1,
		WALDir: walDir, WALNoSync: noSync, MaxDelta: liveMaxDelta,
		Approx: &vsdb.ApproxOptions{},
	}
}

// genLive builds the live-catalog restart state: jittered variants of
// extracted aircraft covers are bulk-inserted into a WAL-backed 2-shard
// cluster, checkpointed into snap/, and followed by a tail of acked
// mutations in wal/. The cluster is then dropped without Close — the
// crash the timed restart recovers from. The op script is drawn from the
// post-tail state, so every delete names a live id and every insert a
// fresh one.
func genLive(dir string, seed int64, sz size) error {
	bases := baseCovers(cadgen.AircraftDataset(seed, sz.liveBaseParts))
	if len(bases) == 0 {
		return fmt.Errorf("live catalog: no base covers")
	}
	rng := rand.New(rand.NewSource(seed))
	// jitterOf returns a jittered variant of base cover b; jitter draws
	// the base at random.
	jitterOf := func(b int) [][]float64 {
		base := bases[b]
		out := make([][]float64, len(base))
		for i, v := range base {
			out[i] = make([]float64, len(v))
			for j, x := range v {
				out[i][j] = x + jitterSigma*rng.NormFloat64()
			}
		}
		return out
	}
	jitter := func() [][]float64 { return jitterOf(rng.Intn(len(bases))) }
	// Every base cover gets the same number of variants: drawn at random,
	// their counts would vary by seed, and with them the neighborhood
	// density every k-nn query pays for.
	ids := make([]uint64, sz.liveObjects)
	sets := make([][][]float64, sz.liveObjects)
	for i := range ids {
		ids[i], sets[i] = uint64(i), jitterOf(i%len(bases))
	}
	// Without fsync: the bytes reach the files either way, and generation
	// is not what is measured.
	c, err := cluster.New(liveConfig(filepath.Join(dir, "wal"), true))
	if err != nil {
		return err
	}
	if err := c.BulkInsert(ids, sets); err != nil {
		return err
	}
	if err := c.Checkpoint(filepath.Join(dir, "snap")); err != nil {
		return err
	}

	live := append([]uint64(nil), ids...)
	next := uint64(sz.liveObjects)
	acked := map[uint64][][]float64{}
	for range sz.walTail {
		if rng.Intn(2) == 0 {
			set := jitter()
			if err := c.Insert(next, set); err != nil {
				return err
			}
			acked[next] = set
			live = append(live, next)
			next++
			continue
		}
		j := rng.Intn(len(live))
		id := live[j]
		if err := c.Delete(id); err != nil {
			return err
		}
		acked[id] = nil
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}

	var m liveManifest
	m.Objects = len(live)
	for id, set := range acked {
		m.Acked = append(m.Acked, ackedObject{ID: id, Set: set})
	}
	sort.Slice(m.Acked, func(a, b int) bool { return m.Acked[a].ID < m.Acked[b].ID })
	// ε so that the median range answer holds about k objects: the median
	// over sampled queries of their k-th neighbor distance.
	kth := make([]float64, 0, epsSample)
	for range epsSample {
		res, err := c.KNN(jitter(), knnK)
		if err != nil {
			return err
		}
		kth = append(kth, res.Neighbors[len(res.Neighbors)-1].Dist)
	}
	m.Eps = median(kth)
	if err := writeJSON(filepath.Join(dir, "manifest.json"), &m); err != nil {
		return err
	}

	f, err := os.Create(filepath.Join(dir, "ops.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	yes := true
	for range sz.scriptLen {
		var op string
		var body any
		switch r := rng.Intn(10); {
		case r < 6:
			op, body = "knn", server.QueryRequest{Set: jitter(), K: knnK}
		case r < 7:
			op, body = "knn_approx", server.QueryRequest{Set: jitter(), K: knnK, Approx: &yes}
		case r < 8:
			op, body = "range", server.QueryRequest{Set: jitter(), Eps: m.Eps}
		case r < 9:
			op, body = "insert", server.MutateRequest{ID: next, Set: jitter()}
			live = append(live, next)
			next++
		default:
			j := rng.Intn(len(live))
			op, body = "delete", server.MutateRequest{ID: live[j]}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		if err := enc.Encode(liveOp{Op: op, Body: b}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// baseCovers extracts the cover sets of parts with recall.BuildCatalog,
// one half of the parts per generation worker, in part order.
func baseCovers(parts []cadgen.Part) [][][]float64 {
	halves := make([]recall.Catalog, workerThreads)
	parallel.ForEach(workerThreads, workerThreads, func(w int) {
		lo, hi := parallel.Chunk(len(parts), workerThreads, w)
		halves[w] = recall.BuildCatalog(parts[lo:hi], liveCoverRes, maxCard)
	})
	var out [][][]float64
	for _, h := range halves {
		out = append(out, h.Sets...)
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func readOps(dir string) ([]liveOp, error) {
	f, err := os.Open(filepath.Join(dir, "ops.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ops []liveOp
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var op liveOp
		if err := dec.Decode(&op); err == io.EOF {
			return ops, nil
		} else if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
}

// inputsDigest is the SHA-256 of every file under dir: relative path,
// length and contents, in path order.
func inputsDigest(dir string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}
