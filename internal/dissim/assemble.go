package dissim

import (
	"fmt"
	"math"

	"ppclust/internal/parallel"
)

// Assembler realizes the third party's side of the paper's Figure 11: it
// collects each data holder's local dissimilarity matrix and, for every
// holder pair (J, K) with K > J, the cross-party block produced by the
// comparison protocol, then emits the global matrix over the concatenated
// object ordering (party 0's objects first, then party 1's, …).
//
// Cross blocks arrive with the later party's objects as rows and the
// earlier party's as columns — exactly the J_K orientation the protocol's
// third-party step outputs — so every block lands below the diagonal. In
// the packed lower-triangle storage, row m of a block is one contiguous
// run of cells, which lets the assembler place whole rows at a time —
// split across the engine's workers for the O(n²) cross blocks — instead
// of going through the per-element Set bounds checks. Placement tracks
// the running maximum, so the Normalize that follows Done needs no Max
// pass of its own.
type Assembler struct {
	sizes   []int
	offsets []int
	global  *Matrix
	workers int
	max     float64
	// maxStale is set when a block is installed twice: the incremental
	// max only grows, so after an overwrite it may exceed the true
	// maximum and Done must leave the matrix to rescan.
	maxStale bool
	// done records that the global matrix was handed out; a second Done
	// must not re-prime the max cache (the caller may have normalized
	// the matrix in the meantime).
	done bool

	localSet []bool
	crossSet [][]bool
	// Row-exact install tracking for SetLocalRows: localRows[p] marks which
	// rows of party p's triangle have landed (allocated lazily on the first
	// row-range install), localRowsLeft[p] counts the rows still missing.
	// Row 0 carries no packed cells, so only rows 1..n−1 are tracked and a
	// party with fewer than two objects completes on its first (empty)
	// install.
	localRows     [][]bool
	localRowsLeft []int
	// Row-exact install tracking for SetCrossRows, mirroring localRows:
	// keyed by {k, j}, allocated lazily on the first row-range install of a
	// pair's cross block. Every row 0..rows(k)−1 of a cross block carries
	// cells, so a pair whose responder has zero objects completes on its
	// first (empty) install.
	crossRows     map[[2]int][]bool
	crossRowsLeft map[[2]int]int
}

// NewAssembler prepares assembly for the given per-party object counts,
// in global party order, placing blocks serially.
func NewAssembler(sizes []int) (*Assembler, error) {
	return NewAssemblerPar(sizes, 1)
}

// NewAssemblerPar is NewAssembler with a worker count for block placement
// (<= 0 = all cores).
func NewAssemblerPar(sizes []int, workers int) (*Assembler, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("dissim: no parties")
	}
	offsets := make([]int, len(sizes))
	total := 0
	for i, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("dissim: negative size %d for party %d", s, i)
		}
		offsets[i] = total
		total += s
	}
	crossSet := make([][]bool, len(sizes))
	for k := range crossSet {
		crossSet[k] = make([]bool, len(sizes))
	}
	return &Assembler{
		sizes:         sizes,
		offsets:       offsets,
		global:        New(total),
		workers:       parallel.Workers(workers),
		localSet:      make([]bool, len(sizes)),
		crossSet:      crossSet,
		localRows:     make([][]bool, len(sizes)),
		localRowsLeft: make([]int, len(sizes)),
		crossRows:     make(map[[2]int][]bool),
		crossRowsLeft: make(map[[2]int]int),
	}, nil
}

// Total returns the global object count.
func (a *Assembler) Total() int { return a.global.N() }

// Offset returns the global index of party p's first object.
func (a *Assembler) Offset(p int) int { return a.offsets[p] }

// SetLocal installs party p's local dissimilarity matrix. Row i of the
// local triangle is copied into the contiguous global cells
// [(off+i)(off+i−1)/2 + off, …+i); entries were validated when the local
// matrix was built or unpacked.
func (a *Assembler) SetLocal(p int, local *Matrix) error {
	if p < 0 || p >= len(a.sizes) {
		return fmt.Errorf("dissim: party %d out of range", p)
	}
	if local.N() != a.sizes[p] {
		return fmt.Errorf("dissim: party %d local matrix has %d objects, want %d", p, local.N(), a.sizes[p])
	}
	if a.localSet[p] || a.localRows[p] != nil {
		// Either a full re-install or a monolithic install over a partial
		// row stream: rows are overwritten, so the incremental max may
		// exceed the truth.
		a.maxStale = true
	}
	off := a.offsets[p]
	for i := 1; i < local.N(); i++ {
		gi := off + i
		src := local.cell[i*(i-1)/2 : i*(i-1)/2+i]
		dst := a.global.cell[gi*(gi-1)/2+off:]
		copy(dst[:i], src)
	}
	if lm := local.Max(); lm > a.max {
		a.max = lm
	}
	a.localSet[p] = true
	a.localRows[p], a.localRowsLeft[p] = nil, 0
	return nil
}

// SetLocalRows installs rows [lo, hi) of party p's local dissimilarity
// matrix from their packed cells — the row-exact incremental form of
// SetLocal that the chunked streaming path calls once per arriving frame,
// so assembly of a triangle starts with its first rows rather than after
// the last. cells must hold exactly the rows' packed run (see
// Matrix.PackedRowsView); entries are validated like FromPacked since they
// come straight off the wire. The running maximum is tracked per chunk and
// a re-installed row marks the max stale, so Done's semantics — including
// the rescan after any overwrite — are unchanged from the monolithic path.
// Once every row of [1, n) has landed (in any chunking and any order) the
// party counts as set; a party with fewer than two objects completes on
// its first valid call.
func (a *Assembler) SetLocalRows(p, lo, hi int, cells []float64) error {
	if p < 0 || p >= len(a.sizes) {
		return fmt.Errorf("dissim: party %d out of range", p)
	}
	n := a.sizes[p]
	if lo < 0 || hi < lo || hi > n {
		return fmt.Errorf("dissim: party %d row range [%d,%d) invalid for %d objects", p, lo, hi, n)
	}
	base := lo * (lo - 1) / 2
	if want := hi*(hi-1)/2 - base; len(cells) != want {
		return fmt.Errorf("dissim: party %d rows [%d,%d) carry %d cells, want %d", p, lo, hi, len(cells), want)
	}
	chunkMax := 0.0
	for i, v := range cells {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("dissim: invalid dissimilarity %v in party %d rows [%d,%d) at cell %d", v, p, lo, hi, i)
		}
		if v > chunkMax {
			chunkMax = v
		}
	}
	off := a.offsets[p]
	start := lo
	if start < 1 {
		start = 1
	}
	for i := start; i < hi; i++ {
		gi := off + i
		src := cells[i*(i-1)/2-base : i*(i-1)/2-base+i]
		dst := a.global.cell[gi*(gi-1)/2+off:]
		copy(dst[:i], src)
	}
	if chunkMax > a.max {
		a.max = chunkMax
	}
	if a.localSet[p] {
		// Rows re-installed after the party completed.
		a.maxStale = true
		return nil
	}
	if n < 2 {
		a.localSet[p] = true
		return nil
	}
	if a.localRows[p] == nil {
		a.localRows[p] = make([]bool, n)
		a.localRowsLeft[p] = n - 1 // rows 1..n−1 carry cells
	}
	for r := start; r < hi; r++ {
		if a.localRows[p][r] {
			a.maxStale = true
			continue
		}
		a.localRows[p][r] = true
		a.localRowsLeft[p]--
	}
	if a.localRowsLeft[p] == 0 {
		a.localSet[p] = true
		a.localRows[p] = nil
	}
	return nil
}

// SetCross installs the protocol output block for the pair (j, k), k > j:
// at(m, n) is the distance between party k's object m and party j's object
// n, matching the J_K matrix of Figures 6 and 10. Rows are placed in
// parallel; at must therefore be safe for concurrent calls (the decoded
// protocol blocks are plain value lookups). Invalid entries — negative or
// non-finite, indicating a protocol-layer bug — are reported as errors.
func (a *Assembler) SetCross(j, k int, at func(m, n int) float64) error {
	if j < 0 || k >= len(a.sizes) || k <= j {
		return fmt.Errorf("dissim: invalid pair (%d,%d)", j, k)
	}
	key := [2]int{k, j}
	if a.crossSet[k][j] || a.crossRows[key] != nil {
		// Either a full re-install or a monolithic install over a partial
		// row stream: rows are overwritten, so the incremental max may
		// exceed the truth.
		a.maxStale = true
	}
	if err := a.placeCrossRows(j, k, 0, a.sizes[k], at); err != nil {
		return err
	}
	a.crossSet[k][j] = true
	delete(a.crossRows, key)
	delete(a.crossRowsLeft, key)
	return nil
}

// SetCrossRows installs rows [lo, hi) of the cross block for the pair
// (j, k), k > j — the row-exact incremental form of SetCross that the
// chunked pairwise streaming path calls once per decoded protocol chunk,
// so cross-block installation starts with a payload's first rows rather
// than after its last. at is chunk-relative: at(m, n) is the distance
// between party k's object lo+m and party j's object n, matching the
// row-range block the protocol's third-party step decodes from one chunk.
// Rows are placed in parallel, so at must be safe for concurrent calls.
// The running maximum is tracked per chunk and a re-installed row marks
// the max stale, so Done's semantics — including the rescan after any
// overwrite — are unchanged from the monolithic path. Once every row of
// [0, rows) has landed (in any chunking and any order) the pair counts as
// set; a pair whose responder has zero objects completes on its first
// (empty) call.
func (a *Assembler) SetCrossRows(j, k, lo, hi int, at func(m, n int) float64) error {
	if j < 0 || k >= len(a.sizes) || k <= j {
		return fmt.Errorf("dissim: invalid pair (%d,%d)", j, k)
	}
	rows := a.sizes[k]
	if lo < 0 || hi < lo || hi > rows {
		return fmt.Errorf("dissim: cross block (%d,%d) row range [%d,%d) invalid for %d rows", j, k, lo, hi, rows)
	}
	if err := a.placeCrossRows(j, k, lo, hi, at); err != nil {
		return err
	}
	key := [2]int{k, j}
	if a.crossSet[k][j] {
		// Rows re-installed after the pair completed.
		a.maxStale = true
		return nil
	}
	if rows == 0 {
		a.crossSet[k][j] = true
		return nil
	}
	seen := a.crossRows[key]
	if seen == nil {
		seen = make([]bool, rows)
		a.crossRows[key] = seen
		a.crossRowsLeft[key] = rows
	}
	for r := lo; r < hi; r++ {
		if seen[r] {
			a.maxStale = true
			continue
		}
		seen[r] = true
		a.crossRowsLeft[key]--
	}
	if a.crossRowsLeft[key] == 0 {
		a.crossSet[k][j] = true
		delete(a.crossRows, key)
		delete(a.crossRowsLeft, key)
	}
	return nil
}

// placeCrossRows writes rows [lo, hi) of pair (j, k)'s cross block into
// the global triangle, validating entries and folding the range's maximum
// into the running max. at is relative to lo.
func (a *Assembler) placeCrossRows(j, k, lo, hi int, at func(m, n int) float64) error {
	offK, offJ := a.offsets[k], a.offsets[j]
	cols := a.sizes[j]
	max, err := parallel.MaxRangeErr(a.workers, hi-lo, func(_, rlo, rhi int) (float64, error) {
		chunkMax := 0.0
		for m := rlo; m < rhi; m++ {
			gi := offK + lo + m
			dst := a.global.cell[gi*(gi-1)/2+offJ:]
			for n := 0; n < cols; n++ {
				v := at(m, n)
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return chunkMax, fmt.Errorf("dissim: invalid dissimilarity %v in cross block (%d,%d) at (%d,%d)", v, j, k, lo+m, n)
				}
				dst[n] = v
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
	if max > a.max {
		a.max = max
	}
	return nil
}

// Done verifies that every local matrix and every cross block has been
// installed and returns the assembled global matrix with its maximum
// already known.
func (a *Assembler) Done() (*Matrix, error) {
	for p, ok := range a.localSet {
		if !ok {
			if a.localRows[p] != nil {
				return nil, fmt.Errorf("dissim: party %d local matrix incomplete: %d of %d rows missing",
					p, a.localRowsLeft[p], a.sizes[p]-1)
			}
			return nil, fmt.Errorf("dissim: missing local matrix for party %d", p)
		}
	}
	for k := range a.crossSet {
		for j := 0; j < k; j++ {
			if !a.crossSet[k][j] {
				if left, ok := a.crossRowsLeft[[2]int{k, j}]; ok {
					return nil, fmt.Errorf("dissim: cross block (%d,%d) incomplete: %d of %d rows missing",
						j, k, left, a.sizes[k])
				}
				return nil, fmt.Errorf("dissim: missing cross block (%d,%d)", j, k)
			}
		}
	}
	if !a.done {
		if a.maxStale {
			// A block was overwritten; the incremental max may be too
			// large. Drop the cache and let the next Max/Normalize rescan.
			a.global.invalidateMax()
		} else {
			a.global.setMax(a.max)
		}
		a.done = true
	}
	return a.global, nil
}
