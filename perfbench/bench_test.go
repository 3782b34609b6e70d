package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

var workloads = []string{wUpload, wScanPartial, wLive}

func TestInputsByteIdenticalPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			digest := func(seed int64) string {
				dir := t.TempDir()
				if err := generate(dir, w, seed, sizes["tiny"]); err != nil {
					t.Fatal(err)
				}
				d, err := inputsDigest(dir)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			a, b, c := digest(7), digest(7), digest(8)
			if a != b {
				t.Errorf("seed 7 generated different inputs: %s vs %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 7 and 8 generated identical inputs %s", a)
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 {
			if beyond := tc.n - 1 - rankIndex(tc.n, p); beyond < 10 {
				t.Errorf("n=%d: p%v leaves %d samples beyond it", tc.n, p, beyond)
			}
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60], which overlap,
	// and c [90,120], which runs past the root's end; a has child aa
	// [20,30].
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "aa", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	want := map[int64]time.Duration{1: 100 - 50 - 10, 2: 20, 3: 10, 4: 30, 5: 30}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
	rows := layerTable(spans)
	if len(rows) != 5 || rows[0].root != "root" {
		t.Fatalf("layerTable rows %+v", rows)
	}
	for _, r := range rows {
		if r.name == "root" && r.share != 0.4 {
			t.Errorf("root share %v, want 0.4", r.share)
		}
	}
}

// benchmarkJSON is the repository's BENCHMARK.json, which names the
// metrics this program must print.
func benchmarkJSON(t *testing.T) (e2e, layers []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	return e2e, layers
}

func metricNames(r *result) []string {
	var out []string
	for k, m := range r.Metrics {
		out = append(out, k+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// TestTinyRunsPassOracles runs every workload untraced and traced at
// the tiny size: every answer must pass its oracle, every metric of
// BENCHMARK.json must be printed with its unit, and the traced run must
// attribute the work to the layers it belongs to.
func TestTinyRunsPassOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := benchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(io.Discard, w, 3, 1, trace, "tiny", t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layers
			}
			if got := metricNames(res); !equal(got, want) {
				t.Errorf("%s trace=%v metrics\n got %v\nwant %v", w, trace, got, want)
			}
			if !trace {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, k, m.Value)
					}
				}
				continue
			}
			v := func(k string) float64 { return res.Metrics[k].Value }
			switch w {
			case wUpload:
				if v("mesh.parse_ms")+v("voxel.voxelize_ms")+v("cover.extract_ms") <= v("cluster.search_ms") {
					t.Errorf("upload: extraction layers do not outweigh search: %+v", res.Metrics)
				}
			case wScanPartial:
				// Partial matching is an unfiltered scan: one refinement
				// per catalog object.
				if got, want := v("filter.refinements_per_query"), float64(len(catalogIDs(t, w))); got != want {
					t.Errorf("scan-partial: %v refinements per query, want the catalog size %v", got, want)
				}
			case wLive:
				for _, k := range []string{"mesh.parse_ms", "voxel.voxelize_ms", "cover.extract_ms", "ingest.extract_ms_per_object"} {
					if v(k) != 0 {
						t.Errorf("live-catalog: extraction layer %s = %v, want 0", k, v(k))
					}
				}
				if v("vsdb.write_ms") <= 0 || v("snapshot.load_ms") <= 0 || v("wal.replay_ms") <= 0 || v("sketch.approx_ms") <= 0 {
					t.Errorf("live-catalog: write, restart or sketch layer missing: %+v", res.Metrics)
				}
			}
		}
	}
}

// catalogIDs regenerates the tiny catalog of seed 3 and returns its ids.
func catalogIDs(t *testing.T, w string) []uint64 {
	dir := t.TempDir()
	if err := generate(dir, w, 3, sizes["tiny"]); err != nil {
		t.Fatal(err)
	}
	var m meshManifest
	if err := readJSON(dir+"/manifest.json", &m); err != nil {
		t.Fatal(err)
	}
	return m.Catalog
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
