package main

import (
	"fmt"
	"io"
	"time"

	"ppclust/internal/alphabet"
	"ppclust/internal/dataset"
	"ppclust/internal/hcluster"
	"ppclust/internal/keys"
	"ppclust/internal/party"
	"ppclust/internal/rng"
)

// Every TP lane (holder↔TP and holder↔TP shard) is a store-and-forward
// WAN link in both directions: 1 ms propagation, 64 MB/s bottleneck.
const (
	linkDelay = time.Millisecond
	linkRate  = 64 << 20 // bytes per second
)

// workload is one traffic mix. The program under test sees only the
// tables gen builds from the seed.
type workload struct {
	name string
	why  string
	// rows is the object count per holder; tests shrink it.
	rows int
	// tenants runs the sessions through one server.Manager with one
	// closed-loop client per core; otherwise one client drives
	// party.RunInMemoryWrapped back to back.
	tenants bool
	// shards > 1 runs the third party as that many ShardServer workers
	// reached over localhost TCP.
	shards  int
	holders []string
	schema  dataset.Schema
	reqs    map[string]party.ClusterRequest
	gen     func(s rng.Stream, rows int) *dataset.Table
}

var numericSchema = dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}

var mixedSchema = dataset.Schema{Attrs: []dataset.Attribute{
	{Name: "age", Type: dataset.Numeric},
	{Name: "income", Type: dataset.Numeric},
	{Name: "dna", Type: dataset.Alphanumeric, Alphabet: alphabet.DNA},
	{Name: "city", Type: dataset.Categorical},
}}

// numericTable draws one continuous value per object, so gob's float
// encoding runs at its realistic width.
func numericTable(s rng.Stream, rows int) *dataset.Table {
	t := dataset.MustNewTable(numericSchema)
	for r := 0; r < rows; r++ {
		t.MustAppendRow(1000 * rng.Float64(s))
	}
	return t
}

// dnaLength is the length of every generated DNA string.
const dnaLength = 8

var cities = []string{"ankara", "istanbul", "izmir", "bursa", "antalya", "konya"}

func mixedTable(s rng.Stream, rows int) *dataset.Table {
	t := dataset.MustNewTable(mixedSchema)
	dna := make([]byte, dnaLength)
	for r := 0; r < rows; r++ {
		for i := range dna {
			dna[i] = "ACGT"[rng.Symbol(s, 4)]
		}
		t.MustAppendRow(18+72*rng.Float64(s), 5000*rng.Float64(s), string(dna), cities[rng.Symbol(s, len(cities))])
	}
	return t
}

var singleK3 = party.ClusterRequest{Method: party.MethodAgglomerative, Linkage: hcluster.Single, K: 3}

// workloads are the benchmark's traffic mixes, in the order they are
// documented in BENCHMARK.json.
var workloads = []*workload{
	{
		name: "bulk-wan",
		why: "big payloads dominate: triangles and the S matrix stream through codec, Secure and link; " +
			"assembly, single-link clustering at n=1200 and silhouette sit on the critical path",
		rows:    600,
		holders: []string{"A", "B"},
		schema:  numericSchema,
		reqs:    map[string]party.ClusterRequest{"A": singleK3, "B": singleK3},
		gen:     numericTable,
	},
	{
		name: "tenants-mixed",
		why: "many small concurrent sessions saturate the CPU and send symbol matrices in small frames " +
			"through admission, key agreement, the CCM protocol, detenc and per-holder clustering",
		rows:    80,
		tenants: true,
		holders: []string{"A", "B", "C"},
		schema:  mixedSchema,
		reqs: map[string]party.ClusterRequest{
			"A": {Method: party.MethodAgglomerative, Linkage: hcluster.Average, K: 3},
			"B": {Method: party.MethodPAM, K: 3},
			"C": {Method: party.MethodDiana, K: 3},
		},
		gen: mixedTable,
	},
	{
		name: "shard-relay",
		why: "bulk-wan with two shard workers over localhost TCP: the only workload that runs the relay, " +
			"the worker channel and the slice merge; its gap to bulk-wan is the relay tax",
		rows:    600,
		shards:  2,
		holders: []string{"A", "B"},
		schema:  numericSchema,
		reqs:    map[string]party.ClusterRequest{"A": singleK3, "B": singleK3},
		gen:     numericTable,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs builds the workload's partitions from the seed alone.
func (w *workload) inputs(seed uint64) []dataset.Partition {
	s := rng.NewXoshiro(rng.SeedFromBytes([]byte(fmt.Sprintf("perfbench/%s/%d", w.name, seed))))
	parts := make([]dataset.Partition, len(w.holders))
	for i, h := range w.holders {
		parts[i] = dataset.Partition{Site: h, Table: w.gen(s, w.rows)}
	}
	return parts
}

// randomFor gives every party of every session the same reproducible
// stream for a seed, so every session of a run publishes bit-identical
// results and one digest checks them all.
func randomFor(seed uint64) party.RandomSource {
	return func(p string) io.Reader {
		return keys.StreamReader(rng.NewAESCTR(rng.SeedFromBytes([]byte(fmt.Sprintf("perfbench/party/%s/%d", p, seed)))))
	}
}
