// Package dissim implements the dissimilarity matrix — the object-by-object
// structure at the heart of the İnan et al. protocol — together with the
// paper's local construction (Figure 12), global assembly (Figure 11),
// max-normalization and weighted multi-attribute merging.
//
// A dissimilarity matrix is symmetric with a zero diagonal, so only the
// entries below the diagonal are stored (paper Figure 2): d[i][j] with
// i > j lives at packed index i(i−1)/2 + j.
package dissim

import (
	"fmt"
	"math"
	"strings"

	"ppclust/internal/parallel"
)

// Matrix is a symmetric object-by-object dissimilarity matrix with zero
// diagonal, stored as a packed lower triangle.
//
// The matrix carries a maximum-entry cache so that Normalize — the final
// step of the paper's Figure 11 — needs no separate Max pass when the
// matrix came out of one of the package's builders (FromLocal,
// FromPacked, WeightedMerge, the Assembler): those fuse max tracking into
// the construction pass they already make. Set keeps the cache alive on
// the grow-from-zero write patterns the builders use and invalidates it
// otherwise.
type Matrix struct {
	n    int
	cell []float64

	maxOK    bool
	maxCache float64
}

// New allocates an n×n zero matrix.
func New(n int) *Matrix {
	if n < 0 {
		panic(fmt.Sprintf("dissim: negative size %d", n))
	}
	return &Matrix{n: n, cell: make([]float64, n*(n-1)/2), maxOK: true}
}

// N returns the number of objects.
func (m *Matrix) N() int { return m.n }

func (m *Matrix) index(i, j int) int {
	if i < 0 || j < 0 || i >= m.n || j >= m.n {
		panic(fmt.Sprintf("dissim: index (%d,%d) out of range for n=%d", i, j, m.n))
	}
	if j > i {
		i, j = j, i
	}
	return i*(i-1)/2 + j
}

// At returns d[i][j]. The diagonal is always 0.
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		m.index(i, j) // bounds check
		return 0
	}
	return m.cell[m.index(i, j)]
}

// Set assigns d[i][j] = d[j][i] = v. Diagonal entries may only be set to 0;
// negative or non-finite dissimilarities are rejected by panic, as they
// indicate a protocol-layer bug rather than a recoverable condition.
func (m *Matrix) Set(i, j int, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		panic(fmt.Sprintf("dissim: invalid dissimilarity %v at (%d,%d)", v, i, j))
	}
	if i == j {
		m.index(i, j)
		if v != 0 {
			panic(fmt.Sprintf("dissim: nonzero diagonal %v at %d", v, i))
		}
		return
	}
	idx := m.index(i, j)
	old := m.cell[idx]
	m.cell[idx] = v
	if m.maxOK {
		if v >= m.maxCache {
			m.maxCache = v
		} else if old == m.maxCache {
			// The overwritten entry may have been the unique maximum.
			m.maxOK = false
		}
	}
}

// Max returns the largest entry (0 for matrices with fewer than 2
// objects). Builders prime a cache during their construction pass, so
// the usual construct-then-Normalize sequence needs no extra scan. When
// the cache was invalidated by Set, Max rescans WITHOUT storing — the
// method stays a pure read, safe for concurrent callers on a quiescent
// matrix, exactly as before the cache existed.
func (m *Matrix) Max() float64 {
	if m.maxOK {
		return m.maxCache
	}
	max := 0.0
	for _, v := range m.cell {
		if v > max {
			max = v
		}
	}
	return max
}

// setMax primes the cache from a builder that tracked the maximum during
// its construction pass.
func (m *Matrix) setMax(max float64) {
	m.maxCache, m.maxOK = max, true
}

// invalidateMax drops the cache; the next Max call rescans. Builders use
// it when their incremental tracking can no longer be trusted (e.g. a
// block overwrite in the Assembler).
func (m *Matrix) invalidateMax() {
	m.maxOK = false
}

// Normalize scales all entries into [0, 1] by dividing by the maximum
// entry, the final step of the paper's Figure 11 ("d[m][n] = d[m][n] /
// maximum value in d"). A zero matrix is left unchanged. It returns the
// maximum that was used, so callers can report the scale.
func (m *Matrix) Normalize() float64 {
	return m.NormalizePar(1)
}

// NormalizePar is Normalize over the given worker count (<= 0 = all
// cores). Scaling is element-wise, so the result is bit-identical at any
// worker count.
func (m *Matrix) NormalizePar(workers int) float64 {
	max := m.Max()
	if max == 0 {
		return 0
	}
	parallel.Range(parallel.Workers(workers), len(m.cell), func(_, lo, hi int) {
		cells := m.cell[lo:hi]
		for i := range cells {
			cells[i] /= max
		}
	})
	m.setMax(1)
	return max
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.n)
	copy(c.cell, m.cell)
	c.maxOK, c.maxCache = m.maxOK, m.maxCache
	return c
}

// EqualWithin reports whether the two matrices have the same size and all
// entries within tol of each other.
func (m *Matrix) EqualWithin(o *Matrix, tol float64) bool {
	if m.n != o.n {
		return false
	}
	for i := range m.cell {
		if math.Abs(m.cell[i]-o.cell[i]) > tol {
			return false
		}
	}
	return true
}

// MaxDifference returns the largest absolute entry-wise difference between
// two same-sized matrices, for accuracy reporting.
func (m *Matrix) MaxDifference(o *Matrix) (float64, error) {
	if m.n != o.n {
		return 0, fmt.Errorf("dissim: size mismatch %d vs %d", m.n, o.n)
	}
	max := 0.0
	for i := range m.cell {
		if d := math.Abs(m.cell[i] - o.cell[i]); d > max {
			max = d
		}
	}
	return max, nil
}

// String renders the lower triangle, for small matrices in examples and
// debugging output.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j <= i; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%6.3f", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Packed returns a copy of the packed lower triangle, the wire form in
// which data holders send local matrices to the third party.
func (m *Matrix) Packed() []float64 {
	return append([]float64(nil), m.cell...)
}

// PackedView returns the packed lower triangle without copying. The slice
// aliases the matrix storage: callers must treat it as read-only and must
// not retain it past the matrix's next mutation. It exists for the wire
// path, where a holder serializes a local matrix it is about to discard.
func (m *Matrix) PackedView() []float64 {
	return m.cell
}

// PackedRowsView returns the packed cells of rows [lo, hi) without copying —
// the row-range form of PackedView that the chunked local-matrix wire path
// serializes one bounded frame at a time. Row i's cells occupy packed
// indices [i(i−1)/2, i(i−1)/2+i), so a row range is one contiguous run.
// The same aliasing rules as PackedView apply.
func (m *Matrix) PackedRowsView(lo, hi int) []float64 {
	if lo < 0 || hi < lo || hi > m.n {
		panic(fmt.Sprintf("dissim: row range [%d,%d) out of range for n=%d", lo, hi, m.n))
	}
	return m.cell[lo*(lo-1)/2 : hi*(hi-1)/2]
}

// RowChunks splits the packed triangle of an n-object matrix into
// contiguous row ranges of at most maxCells packed cells each (minimum one
// row per chunk, so a single row larger than maxCells still travels whole —
// rows are the installation granularity). It is the shared chunk schedule
// of the streaming wire path: sender and receiver derive the identical
// partition from (n, maxCells) alone, so the receiver knows every chunk's
// row range and count up front. n <= 0 and n == 1 yield one (empty) chunk,
// keeping "one frame minimum" true for degenerate parties.
func RowChunks(n, maxCells int) [][2]int {
	if n < 0 {
		n = 0
	}
	if maxCells < 1 {
		maxCells = 1
	}
	var chunks [][2]int
	lo, cells := 0, 0
	for i := 0; i < n; i++ {
		if i > lo && cells+i > maxCells {
			chunks = append(chunks, [2]int{lo, i})
			lo, cells = i, 0
		}
		cells += i // row i holds i packed cells
	}
	return append(chunks, [2]int{lo, n})
}

// RectChunks splits a dense rows×cols matrix — the shape of the pairwise
// protocol's responder→TP S/M payloads — into contiguous row ranges of at
// most maxCells cells each (minimum one row per chunk, so a single row
// wider than maxCells still travels whole: rows are the evaluation and
// installation granularity). Like RowChunks it is a shared schedule:
// sender and receiver derive the identical partition from (rows, cols,
// maxCells) alone, so the receiver knows every chunk's row range — and the
// frame count — before the first frame arrives. rows <= 0 yields one
// (empty) chunk, keeping "one frame minimum" true for empty responders;
// cols <= 0 puts every row in that single chunk, since rows carry no
// cells.
func RectChunks(rows, cols, maxCells int) [][2]int {
	if rows < 0 {
		rows = 0
	}
	per := rectRowsPerChunk(rows, cols, maxCells)
	chunks := make([][2]int, 0, (rows+per-1)/per)
	for lo := 0; lo < rows; lo += per {
		hi := lo + per
		if hi > rows {
			hi = rows
		}
		chunks = append(chunks, [2]int{lo, hi})
	}
	if len(chunks) == 0 {
		chunks = [][2]int{{0, 0}}
	}
	return chunks
}

// rectRowsPerChunk is the rows-per-chunk derivation RectChunks,
// RectChunksRange and RectChunkCountRange must share: the quota a receiver computes from the count
// and the schedule a sender walks diverging would stall the session, so
// there is exactly one copy of the arithmetic. Always at least 1.
func rectRowsPerChunk(rows, cols, maxCells int) int {
	if maxCells < 1 {
		maxCells = 1
	}
	per := rows
	if cols > 0 {
		per = maxCells / cols
	}
	if per < 1 {
		per = 1
	}
	return per
}

// FromPacked builds an n-object matrix over its packed lower triangle,
// validating length and entry ranges. The matrix takes ownership of
// cells — the caller must not use the slice afterwards — so adopting an
// assembled triangle costs no second copy. The validation pass doubles
// as the max pass, so a later Normalize scans nothing.
func FromPacked(n int, cells []float64) (*Matrix, error) {
	if n < 0 {
		return nil, fmt.Errorf("dissim: negative size %d", n)
	}
	if len(cells) != n*(n-1)/2 {
		return nil, fmt.Errorf("dissim: %d cells for n=%d, want %d", len(cells), n, n*(n-1)/2)
	}
	max := 0.0
	for i, v := range cells {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("dissim: invalid packed entry %v at %d", v, i)
		}
		if v > max {
			max = v
		}
	}
	m := &Matrix{n: n, cell: cells}
	m.setMax(max)
	return m, nil
}

// FromLocal is the paper's Figure 12: build a local dissimilarity matrix
// for n objects from a pairwise distance function. The distance function is
// consulted only for i > j.
func FromLocal(n int, dist func(i, j int) float64) *Matrix {
	return FromLocalPar(n, 1, func(int) func(i, j int) float64 { return dist })
}

// FromLocalPar is Figure 12 over the parallel engine: the packed cell
// range is split into contiguous chunks, one per worker, and newDist is
// invoked once per worker so distance functions can carry private scratch
// (the alphanumeric edit-distance DP rows). Every cell's value depends
// only on its own (i, j), so output is bit-identical at any worker count.
// The construction pass tracks the maximum entry, fusing the Max scan
// Normalize would otherwise need.
func FromLocalPar(n, workers int, newDist func(worker int) func(i, j int) float64) *Matrix {
	m := New(n)
	total := len(m.cell)
	max := parallel.MaxRange(workers, total, func(w, lo, hi int) float64 {
		dist := newDist(w)
		i, j := parallel.PairOf(lo)
		chunkMax := 0.0
		for k := lo; k < hi; k++ {
			v := dist(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				panic(fmt.Sprintf("dissim: invalid dissimilarity %v at (%d,%d)", v, i, j))
			}
			m.cell[k] = v
			if v > chunkMax {
				chunkMax = v
			}
			j++
			if j == i {
				i++
				j = 0
			}
		}
		return chunkMax
	})
	m.setMax(max)
	return m
}

// WeightedMerge combines per-attribute dissimilarity matrices into the
// final matrix using the data holders' weight vector (paper Section 5):
// result = Σ wᵢ·dᵢ / Σ wᵢ. Weights must be non-negative with a positive
// sum; matrices must agree in size.
func WeightedMerge(ms []*Matrix, weights []float64) (*Matrix, error) {
	return WeightedMergePar(ms, weights, 1)
}

// WeightedMergePar is WeightedMerge over the parallel engine (<= 0 = all
// cores). Each output cell is the same left-to-right weighted sum the
// serial form computes, evaluated independently per cell, so results are
// bit-identical at any worker count. The merge pass tracks the maximum,
// fusing the scan a following Normalize would make.
func WeightedMergePar(ms []*Matrix, weights []float64, workers int) (*Matrix, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("dissim: no matrices to merge")
	}
	if len(weights) != len(ms) {
		return nil, fmt.Errorf("dissim: %d weights for %d matrices", len(weights), len(ms))
	}
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dissim: invalid weight %v at %d", w, i)
		}
		sum += w
	}
	if sum == 0 {
		return nil, fmt.Errorf("dissim: weights sum to zero")
	}
	n := ms[0].n
	for i, mi := range ms {
		if mi.n != n {
			return nil, fmt.Errorf("dissim: matrix %d has %d objects, want %d", i, mi.n, n)
		}
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / sum
	}
	out := New(n)
	max := parallel.MaxRange(workers, len(out.cell), func(_, lo, hi int) float64 {
		chunkMax := 0.0
		for c := lo; c < hi; c++ {
			v := 0.0
			for i := range ms {
				v += norm[i] * ms[i].cell[c]
			}
			out.cell[c] = v
			if v > chunkMax {
				chunkMax = v
			}
		}
		return chunkMax
	})
	out.setMax(max)
	return out, nil
}
