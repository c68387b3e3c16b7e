// Row-range sharding of the packed triangle — the dissim side of the
// K-way sharded third party. A shard owns a contiguous range of global
// rows [lo, hi); because row i of the packed lower triangle occupies the
// contiguous packed run [i(i−1)/2, i(i−1)/2+i), a row range is one
// contiguous slice of the condensed matrix, so shards assemble disjoint
// slices that concatenate into the full triangle with no overlap and no
// reshuffling.
//
// ShardRanges computes the partition, RowChunksRange/RectChunksRange are
// the row-range restrictions of the shared chunk schedules (sender and
// shard derive identical per-shard schedules from the census alone), and
// SliceAssembler is the shard-local form of Assembler: it installs local
// and cross chunks for its row range only and hands back the packed
// slice plus its maximum for the coordinator's merge.
package dissim

import (
	"fmt"
	"math"

	"ppclust/internal/parallel"
)

// ShardRanges partitions the rows [0, n) of an n-object packed triangle
// into at most k contiguous, non-empty row ranges, balanced by packed
// cell count (row i carries i cells). It is deterministic: every party
// derives the identical partition from (n, k) alone, exactly like the
// chunk schedules. The result has min(k, n) ranges — never an empty
// range, never a dropped row — and their concatenation is [0, n).
// n <= 0 yields nil (no rows to own).
func ShardRanges(n, k int) [][2]int {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	ranges := make([][2]int, 0, k)
	lo := 0
	remCells := n * (n - 1) / 2 // cells in rows [lo, n)
	for s := 0; s < k; s++ {
		remShards := k - s
		if remShards == 1 {
			ranges = append(ranges, [2]int{lo, n})
			break
		}
		target := (remCells + remShards - 1) / remShards
		// Take rows until the shard holds ~1/remShards of the remaining
		// cells, but always at least one row, and leave at least one row
		// for every shard after this one.
		maxHi := n - (remShards - 1)
		hi, cells := lo, 0
		for hi < maxHi {
			cells += hi // row hi holds hi packed cells
			hi++
			if cells >= target {
				break
			}
		}
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
		remCells -= cells
	}
	return ranges
}

// RowChunksRange is RowChunks restricted to the triangle rows [lo, hi):
// it splits that range into contiguous sub-ranges of at most maxCells
// packed cells each (minimum one row per chunk). RowChunksRange(0, n, b)
// equals RowChunks(n, b), and an empty range yields one empty chunk,
// mirroring RowChunks' degenerate behaviour — callers that want zero
// frames for an empty range skip it before scheduling.
func RowChunksRange(lo, hi, maxCells int) [][2]int {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	if maxCells < 1 {
		maxCells = 1
	}
	var chunks [][2]int
	clo, cells := lo, 0
	for i := lo; i < hi; i++ {
		if i > clo && cells+i > maxCells {
			chunks = append(chunks, [2]int{clo, i})
			clo, cells = i, 0
		}
		cells += i
	}
	return append(chunks, [2]int{clo, hi})
}

// RectChunksRange is RectChunks restricted to rows [lo, hi) of a dense
// ·×cols matrix. RectChunksRange(0, rows, cols, b) equals
// RectChunks(rows, cols, b); an empty range yields one empty chunk.
func RectChunksRange(lo, hi, cols, maxCells int) [][2]int {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	per := rectRowsPerChunk(hi-lo, cols, maxCells)
	chunks := make([][2]int, 0, (hi-lo+per-1)/per)
	for c := lo; c < hi; c += per {
		h := c + per
		if h > hi {
			h = hi
		}
		chunks = append(chunks, [2]int{c, h})
	}
	if len(chunks) == 0 {
		chunks = [][2]int{{lo, lo}}
	}
	return chunks
}

// RectChunkCountRange returns len(RectChunksRange(lo, hi, cols, maxCells))
// without materializing the schedule, for demux lane quotas.
func RectChunkCountRange(lo, hi, cols, maxCells int) int {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	if hi == lo {
		return 1
	}
	per := rectRowsPerChunk(hi-lo, cols, maxCells)
	return (hi - lo + per - 1) / per
}

// SetPackedRows installs the packed cells of rows [lo, hi) — a shard's
// assembled slice — into the matrix, validating length and entry ranges.
// The region is expected to be untouched (grow-from-zero, the merge
// pattern of the sharded coordinator), which keeps the max cache alive;
// overwriting non-zero cells falls back to invalidating the cache.
func (m *Matrix) SetPackedRows(lo, hi int, cells []float64) error {
	if lo < 0 || hi < lo || hi > m.n {
		return fmt.Errorf("dissim: row range [%d,%d) out of range for n=%d", lo, hi, m.n)
	}
	base, end := lo*(lo-1)/2, hi*(hi-1)/2
	if len(cells) != end-base {
		return fmt.Errorf("dissim: %d cells for rows [%d,%d), want %d", len(cells), lo, hi, end-base)
	}
	max := 0.0
	for i, v := range cells {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("dissim: invalid packed entry %v at offset %d of rows [%d,%d)", v, i, lo, hi)
		}
		if v > max {
			max = v
		}
	}
	overwrote := false
	for _, v := range m.cell[base:end] {
		if v != 0 {
			overwrote = true
			break
		}
	}
	copy(m.cell[base:end], cells)
	if overwrote {
		m.invalidateMax()
	} else if m.maxOK && max > m.maxCache {
		m.maxCache = max
	}
	return nil
}

// SliceAssembler assembles the packed slice of global rows [lo, hi) of
// the condensed matrix — the shard-local counterpart of Assembler. It
// accepts the same row-exact installs (local triangle chunks from each
// party, decoded cross blocks from each pair) restricted to its range,
// tracks completeness per source, and fuses max tracking into the
// install passes, so the coordinator's merge needs no extra scan.
//
// Chunks must arrive in ascending row order per source (the order every
// chunk schedule emits and the per-conduit demux preserves); overlaps,
// gaps and out-of-range rows are rejected.
type SliceAssembler struct {
	sizes   []int
	offsets []int
	lo, hi  int
	base    int // packed index of row lo: lo(lo-1)/2
	cells   []float64
	workers int

	// next expected holder-local row per source; a source is complete
	// when its cursor reaches its span end. want holds the span ends.
	localNext map[int]int
	localWant map[int]int
	crossNext map[[2]int]int
	crossWant map[[2]int]int

	max  float64
	done bool
}

// NewSliceAssembler prepares assembly of global rows [lo, hi) for parties
// with the given object counts, running block installs over workers
// (<= 0 = all cores). The expected sources are exactly those whose data
// intersects the range: party p's local triangle contributes its rows
// [lo, hi) ∩ [off_p, off_p+n_p), and pair (j, k), j < k, contributes the
// responder rows [lo, hi) ∩ [off_k, off_k+n_k).
func NewSliceAssembler(counts []int, lo, hi, workers int) (*SliceAssembler, error) {
	total := 0
	offsets := make([]int, len(counts))
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("dissim: negative count %d for party %d", c, i)
		}
		offsets[i] = total
		total += c
	}
	if lo < 0 || hi < lo || hi > total {
		return nil, fmt.Errorf("dissim: shard range [%d,%d) out of range for %d objects", lo, hi, total)
	}
	a := &SliceAssembler{
		sizes:     append([]int(nil), counts...),
		offsets:   offsets,
		lo:        lo,
		hi:        hi,
		base:      lo * (lo - 1) / 2,
		cells:     make([]float64, hi*(hi-1)/2-lo*(lo-1)/2),
		workers:   parallel.Workers(workers),
		localNext: make(map[int]int),
		localWant: make(map[int]int),
		crossNext: make(map[[2]int]int),
		crossWant: make(map[[2]int]int),
	}
	for p := range counts {
		llo, lhi := a.intersect(p)
		if llo < lhi {
			a.localNext[p], a.localWant[p] = llo, lhi
		}
	}
	for k := 1; k < len(counts); k++ {
		rlo, rhi := a.intersect(k)
		if rlo >= rhi {
			continue
		}
		for j := 0; j < k; j++ {
			key := [2]int{k, j}
			a.crossNext[key], a.crossWant[key] = rlo, rhi
		}
	}
	return a, nil
}

// intersect returns party p's holder-local row range that falls inside
// the shard's global row range.
func (a *SliceAssembler) intersect(p int) (lo, hi int) {
	off, n := a.offsets[p], a.sizes[p]
	lo, hi = a.lo-off, a.hi-off
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Rows returns the shard's global row range.
func (a *SliceAssembler) Rows() (lo, hi int) { return a.lo, a.hi }

// LocalRows returns party p's expected holder-local row range within the
// shard (empty when the party's rows fall outside it) — the span the
// party must cover with SetLocalRows installs.
func (a *SliceAssembler) LocalRows(p int) (lo, hi int) {
	if p < 0 || p >= len(a.sizes) {
		return 0, 0
	}
	return a.intersect(p)
}

// CrossRows returns responder k's expected holder-local row range within
// the shard for its pair blocks — identical to LocalRows(k), named for
// the call sites that schedule cross traffic.
func (a *SliceAssembler) CrossRows(k int) (lo, hi int) { return a.LocalRows(k) }

// SetLocalRows installs rows [lo, hi) of party p's local triangle (packed
// cells, holder-local indices). The range must continue the party's
// ascending install cursor and stay within its span in the shard.
func (a *SliceAssembler) SetLocalRows(p, lo, hi int, cells []float64) error {
	if a.done {
		return fmt.Errorf("dissim: slice assembler already completed")
	}
	if p < 0 || p >= len(a.sizes) {
		return fmt.Errorf("dissim: party %d out of range", p)
	}
	next, ok := a.localNext[p]
	if !ok {
		return fmt.Errorf("dissim: party %d has no local rows in shard [%d,%d)", p, a.lo, a.hi)
	}
	want := a.localWant[p]
	if lo != next || hi < lo || hi > want {
		return fmt.Errorf("dissim: local rows [%d,%d) for party %d: want next range starting at %d within [%d,%d)", lo, hi, p, next, next, want)
	}
	wantCells := hi*(hi-1)/2 - lo*(lo-1)/2
	if len(cells) != wantCells {
		return fmt.Errorf("dissim: %d cells for local rows [%d,%d) of party %d, want %d", len(cells), lo, hi, p, wantCells)
	}
	off := a.offsets[p]
	chunkMax := 0.0
	for i, v := range cells {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("dissim: invalid local entry %v at offset %d from party %d", v, i, p)
		}
		if v > chunkMax {
			chunkMax = v
		}
	}
	srcBase := lo * (lo - 1) / 2
	for i := lo; i < hi; i++ {
		gi := off + i
		src := cells[i*(i-1)/2-srcBase : i*(i-1)/2-srcBase+i]
		dst := a.cells[gi*(gi-1)/2+off-a.base:]
		copy(dst[:i], src)
	}
	if chunkMax > a.max {
		a.max = chunkMax
	}
	a.localNext[p] = hi
	return nil
}

// SetCrossRows installs the decoded block of pair (j, k) covering
// responder k's holder-local rows [lo, hi): at(r, c) is the
// dissimilarity between responder object lo+r and initiator object c.
// The range must continue the pair's ascending install cursor.
func (a *SliceAssembler) SetCrossRows(j, k, lo, hi int, at func(r, c int) float64) error {
	if a.done {
		return fmt.Errorf("dissim: slice assembler already completed")
	}
	if j < 0 || k < 0 || j >= len(a.sizes) || k >= len(a.sizes) || j == k {
		return fmt.Errorf("dissim: invalid pair (%d,%d)", j, k)
	}
	if j > k {
		return fmt.Errorf("dissim: pair (%d,%d): responder index must exceed initiator", j, k)
	}
	key := [2]int{k, j}
	next, ok := a.crossNext[key]
	if !ok {
		return fmt.Errorf("dissim: pair (%d,%d) has no rows in shard [%d,%d)", j, k, a.lo, a.hi)
	}
	want := a.crossWant[key]
	if lo != next || hi < lo || hi > want {
		return fmt.Errorf("dissim: cross rows [%d,%d) for pair (%d,%d): want next range starting at %d within [%d,%d)", lo, hi, j, k, next, next, want)
	}
	offK, offJ, cols := a.offsets[k], a.offsets[j], a.sizes[j]
	blockMax, err := parallel.MaxRangeErr(a.workers, hi-lo, func(_, blo, bhi int) (float64, error) {
		chunkMax := 0.0
		for r := blo; r < bhi; r++ {
			gi := offK + lo + r
			dst := a.cells[gi*(gi-1)/2+offJ-a.base:]
			for c := 0; c < cols; c++ {
				v := at(r, c)
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return 0, fmt.Errorf("dissim: invalid cross entry %v at (%d,%d) of pair (%d,%d)", v, lo+r, c, j, k)
				}
				dst[c] = v
				if v > chunkMax {
					chunkMax = v
				}
			}
		}
		return chunkMax, nil
	})
	if err != nil {
		return err
	}
	if blockMax > a.max {
		a.max = blockMax
	}
	a.crossNext[key] = hi
	return nil
}

// Done verifies every expected source covered its span and returns the
// assembled packed slice of rows [lo, hi) together with its maximum
// entry. The slice aliases the assembler's storage.
func (a *SliceAssembler) Done() ([]float64, float64, error) {
	for p, next := range a.localNext {
		if next != a.localWant[p] {
			return nil, 0, fmt.Errorf("dissim: local rows of party %d incomplete: next %d, want %d", p, next, a.localWant[p])
		}
	}
	for key, next := range a.crossNext {
		if next != a.crossWant[key] {
			return nil, 0, fmt.Errorf("dissim: cross rows of pair (%d,%d) incomplete: next %d, want %d", key[1], key[0], next, a.crossWant[key])
		}
	}
	a.done = true
	return a.cells, a.max, nil
}
