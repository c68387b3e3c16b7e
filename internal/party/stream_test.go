package party

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/hcluster"
	"ppclust/internal/wire"
)

// TestChunkedStreamingMatchesSerialTP is the streaming engine's
// differential pin: every chunk size — one row per frame, 4 KiB, the
// 256 KiB default, and ∞ (the monolithic pre-streaming wire shape) —
// crossed with Parallelism 1, 2 and all cores must publish a report
// bit-identical to the phase-serial reference path's monolithic install.
// The serial reference is also run over a chunked wire (it reassembles the
// frames into the old monolithic FromPacked + SetLocal install), covering
// the reassembly path the equivalence claim rests on.
func TestChunkedStreamingMatchesSerialTP(t *testing.T) {
	parts := pipelineParts(t, 10)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1, LocalChunkBytes: -1}
	want, err := runSerialRef(base, parts, reqs, deterministicRandom(11), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, chunk := range []int{1, 4 << 10, 256 << 10, -1} {
		for _, workers := range []int{1, 2, 0} {
			cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: workers, LocalChunkBytes: chunk}
			got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(11))
			if err != nil {
				t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
			}
			assertSameOutcome(t, fmt.Sprintf("chunk=%d workers=%d", chunk, workers), want, got)
		}
		// Serial third party over the same chunked wire: the reassembly
		// reference must agree too.
		cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1, LocalChunkBytes: chunk}
		got, err := runSerialRef(cfg, parts, reqs, deterministicRandom(11), nil)
		if err != nil {
			t.Fatalf("chunk=%d serial: %v", chunk, err)
		}
		assertSameOutcome(t, fmt.Sprintf("chunk=%d serial", chunk), want, got)
	}
}

// cappingConduit rejects frames larger than cap at Send, standing in for a
// transport with a much smaller MaxFrame so the ceiling-lift property is
// testable without moving a quarter-gigabyte triangle.
type cappingConduit struct {
	wire.Conduit
	cap int
}

func (c *cappingConduit) Send(frame []byte) error {
	if len(frame) > c.cap {
		return fmt.Errorf("party test: frame of %d bytes over conduit cap %d: %w",
			len(frame), c.cap, wire.ErrFrameTooLarge)
	}
	return c.Conduit.Send(frame)
}

// streamCapParts builds a two-holder numeric session whose larger holder's
// packed triangle gob-encodes well past the test conduit cap.
func streamCapParts(t *testing.T) []dataset.Partition {
	t.Helper()
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	var parts []dataset.Partition
	for pi, spec := range []struct {
		site string
		rows int
	}{{"A", 120}, {"B", 5}} {
		tab := dataset.MustNewTable(schema)
		for r := 0; r < spec.rows; r++ {
			tab.MustAppendRow(float64((r*31+pi)%997) + 0.25)
		}
		parts = append(parts, dataset.Partition{Site: spec.site, Table: tab})
	}
	return parts
}

// TestChunkedStreamingLiftsFrameCeiling: over holder→TP conduits that
// reject frames above 24 KiB, a session whose local triangle encodes to
// ~64 KiB succeeds when streamed in 4 KiB row chunks and fails with the
// descriptive frame-size error when forced monolithic — the MaxFrame
// ceiling-lift property at test scale.
func TestChunkedStreamingLiftsFrameCeiling(t *testing.T) {
	parts := streamCapParts(t)
	capWrap := func(owner, peer string, c wire.Conduit) wire.Conduit {
		if peer == TPName {
			return &cappingConduit{Conduit: c, cap: 24 << 10}
		}
		return c
	}
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, LocalChunkBytes: 4 << 10}
	out, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(12), capWrap)
	if err != nil {
		t.Fatalf("chunked session over capped conduit: %v", err)
	}
	uncapped, err := RunInMemory(cfg, parts, nil, deterministicRandom(12))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "capped conduit", uncapped, out)

	cfg.LocalChunkBytes = -1 // monolithic: the triangle frame must be rejected
	if _, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(12), capWrap); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("monolithic session over capped conduit: want ErrFrameTooLarge, got %v", err)
	}
}

// TestSessionStreamsTrianglePastMaxFrame runs a real end-to-end session in
// which one holder's packed local triangle is larger than wire.MaxFrame —
// the size that was a hard session ceiling when local matrices traveled as
// one frame. Chunked streaming must carry it without any frame approaching
// the limit. The partition is deliberately lopsided so only the local
// triangle (not the pairwise protocol blocks, which remain monolithic) is
// at MaxFrame scale. Skipped under the race detector and -short: the
// session moves ~270 MB of matrix and is minutes-scale under race
// instrumentation, while the machinery is covered at small sizes by the
// differential and frame-cap tests above.
func TestSessionStreamsTrianglePastMaxFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("MaxFrame-scale session skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("MaxFrame-scale session skipped in -short mode")
	}
	const nBig, nSmall = 8195, 3
	if packed := nBig * (nBig - 1) / 2 * 8; packed <= wire.MaxFrame {
		t.Fatalf("test shape too small: packed triangle is %d bytes, MaxFrame is %d", packed, wire.MaxFrame)
	}
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	var parts []dataset.Partition
	for _, spec := range []struct {
		site string
		rows int
	}{{"A", nBig}, {"B", nSmall}} {
		tab := dataset.MustNewTable(schema)
		for r := 0; r < spec.rows; r++ {
			// Integral values keep gob's float encoding short, so the test
			// spends its time in the streaming path rather than encoding.
			tab.MustAppendRow(float64(r % 977))
		}
		parts = append(parts, dataset.Partition{Site: spec.site, Table: tab})
	}
	reqs := map[string]ClusterRequest{
		"A": {Linkage: hcluster.Single, K: 2},
		"B": {Linkage: hcluster.Single, K: 2},
	}
	// Plaintext channels: sealing a quarter gigabyte is not what this test
	// measures, and the chunk schedule is identical either way.
	cfg := Config{Schema: schema, Variant: Float64Variant, PlaintextChannels: true}
	out, err := RunInMemory(cfg, parts, reqs, deterministicRandom(13))
	if err != nil {
		t.Fatalf("MaxFrame-scale session: %v", err)
	}
	total := 0
	for _, members := range out.Results["A"].Clusters {
		total += len(members)
	}
	if total != nBig+nSmall {
		t.Fatalf("published clusters cover %d of %d objects", total, nBig+nSmall)
	}
	if got := out.Report.AttributeMatrices[0].N(); got != nBig+nSmall {
		t.Fatalf("assembled matrix has %d objects, want %d", got, nBig+nSmall)
	}
}

// benchStreamSession is the session-stream benchmark body: a two-holder
// session with one large numeric attribute over store-and-forward TP
// links (1 ms propagation, 64 MB/s bandwidth bottleneck). The shape
// isolates the within-attribute overlap the streaming path adds: with a
// single comparison attribute there is no neighboring attribute for the
// PR 3 pipeline to overlap with, so a monolithic frame serializes
// encode → transfer → decode+install, while row chunks let the sender's
// encode and the third party's install ride inside the transfer window.
// The lopsided rows (rowsA ≫ rowsB) make the local triangle the dominant
// payload; the both-large rows (rowsA = rowsB) make the responder→TP S
// matrix (rowsB×rowsA cells) dominate instead — the payload the pairwise
// chunking adds streaming for. chunkBytes -1 is the monolithic wire shape
// and positive values stream row chunks.
func benchStreamSession(b *testing.B, chunkBytes, rowsA, rowsB int) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	var parts []dataset.Partition
	for pi, spec := range []struct {
		site string
		rows int
	}{{"A", rowsA}, {"B", rowsB}} {
		tab := dataset.MustNewTable(schema)
		for r := 0; r < spec.rows; r++ {
			// Continuous values: gob's full-width float encoding keeps the
			// triangle at realistic wire size (~9 bytes per cell).
			tab.MustAppendRow((float64(r*37+pi) + 0.125) * 1.000003)
		}
		parts = append(parts, dataset.Partition{Site: spec.site, Table: tab})
	}
	cfg := Config{Schema: schema, Variant: Float64Variant, LocalChunkBytes: chunkBytes}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linkSeed := uint64(0)
		tpLink := func(owner, peer string, c wire.Conduit) wire.Conduit {
			if owner != TPName {
				return c
			}
			linkSeed++
			return wire.Link(c, time.Millisecond, 0, 64<<20, linkSeed)
		}
		if _, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(14), tpLink); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionStream is the session-stream family's in-tree smoke
// variant (CI runs it at -benchtime=1x): the monolithic wire shape vs
// row-chunked streaming over bandwidth-limited
// 1 ms links, in the lopsided (big local triangle) shape and the
// both-partitions-large shape whose dominant payload is the pairwise S
// matrix.
func BenchmarkSessionStream(b *testing.B) {
	b.Run("pipelined-mono", func(b *testing.B) { benchStreamSession(b, -1, 1200, 6) })
	b.Run("streamed", func(b *testing.B) { benchStreamSession(b, 256<<10, 1200, 6) })
	b.Run("both-large-mono", func(b *testing.B) { benchStreamSession(b, -1, 600, 600) })
	b.Run("both-large-streamed", func(b *testing.B) { benchStreamSession(b, 256<<10, 600, 600) })
}
